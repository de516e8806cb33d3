//! Data distribution resolution: HPF `PROCESSORS` / `TEMPLATE` / `ALIGN` /
//! `DISTRIBUTE` directives → concrete per-array block mappings.
//!
//! The paper's dHPF experiments compiled the problem size and processor
//! grid into the program ("the problem size and processor grid
//! organization was compiled into the program separately for each
//! instance"); we do the same: all extents are evaluated with `parameter`
//! constants plus caller-supplied bindings, so ownership becomes concrete
//! rectangle arithmetic (with the symbolic integer-set framework used for
//! the subset/emptiness queries of the optimization passes).

use dhpf_fortran::ast::{DistFormat, Expr, ProgramUnit};
use dhpf_fortran::subscript::affine;
use dhpf_iset::Set;
use std::collections::BTreeMap;

/// A concrete processor grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcGrid {
    pub name: String,
    /// Extent per grid dimension.
    pub extents: Vec<i64>,
}

impl ProcGrid {
    pub fn nprocs(&self) -> i64 {
        self.extents.iter().product()
    }

    /// Linear rank of grid coordinates (first dim fastest).
    pub fn rank(&self, coords: &[i64]) -> i64 {
        assert_eq!(coords.len(), self.extents.len());
        let mut rank = 0;
        let mut mul = 1;
        for (c, e) in coords.iter().zip(&self.extents) {
            debug_assert!((0..*e).contains(c));
            rank += c * mul;
            mul *= e;
        }
        rank
    }

    /// Grid coordinates of a linear rank.
    pub fn coords(&self, rank: i64) -> Vec<i64> {
        let mut rank = rank;
        self.extents
            .iter()
            .map(|e| {
                let c = rank % e;
                rank /= e;
                c
            })
            .collect()
    }

    /// All ranks.
    pub fn ranks(&self) -> impl Iterator<Item = i64> {
        0..self.nprocs()
    }
}

/// How one array dimension maps to the machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DimMap {
    /// Not distributed: every processor holds the whole extent.
    Serial,
    /// BLOCK-distributed onto processor-grid dimension `pdim` (which has
    /// `nproc` processors) with the given block size, after adding
    /// `align_offset` to the array index (from ALIGN): template index =
    /// array index + offset. The last processor absorbs any remainder.
    Block {
        pdim: usize,
        block: i64,
        align_offset: i64,
        nproc: i64,
    },
}

/// Concrete distribution of one array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayDist {
    pub array: String,
    /// Inclusive index bounds per dimension (from the declaration).
    pub bounds: Vec<(i64, i64)>,
    pub dims: Vec<DimMap>,
}

impl ArrayDist {
    /// Rank of the array.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Is any dimension distributed?
    pub fn is_distributed(&self) -> bool {
        self.dims.iter().any(|d| matches!(d, DimMap::Block { .. }))
    }

    /// The grid coordinates owning a concrete element, given the grid.
    pub fn owner(&self, idx: &[i64], grid: &ProcGrid) -> Vec<i64> {
        let mut coords = vec![0i64; grid.extents.len()];
        for (d, m) in self.dims.iter().enumerate() {
            if let DimMap::Block {
                pdim,
                block,
                align_offset,
                ..
            } = m
            {
                let t = idx[d] + align_offset - self.template_origin(d);
                coords[*pdim] = (t / block).clamp(0, grid.extents[*pdim] - 1);
            }
        }
        coords
    }

    /// Template-space origin for dimension `d`: the template index that
    /// block 0 starts at. We normalize templates to start at the array's
    /// aligned lower bound.
    fn template_origin(&self, d: usize) -> i64 {
        match &self.dims[d] {
            DimMap::Block { align_offset, .. } => self.bounds[d].0 + align_offset,
            DimMap::Serial => self.bounds[d].0,
        }
    }

    /// Owned index range (inclusive) of dimension `d` for a processor
    /// with grid coordinates `coords` — `None` if empty.
    pub fn owned_range(&self, d: usize, coords: &[i64]) -> Option<(i64, i64)> {
        let (lb, ub) = self.bounds[d];
        match &self.dims[d] {
            DimMap::Serial => Some((lb, ub)),
            DimMap::Block {
                pdim,
                block,
                align_offset,
                nproc,
            } => {
                let c = coords[*pdim];
                let origin = self.template_origin(d);
                let t_lo = origin + c * block;
                let t_hi = if c == nproc - 1 {
                    i64::MAX // last processor absorbs the remainder
                } else {
                    t_lo + block - 1
                };
                let lo = (t_lo - align_offset).max(lb);
                let hi = t_hi.saturating_sub(*align_offset).min(ub);
                (lo <= hi).then_some((lo, hi))
            }
        }
    }

    /// The full owned rectangle for a processor, or `None` if empty.
    pub fn owned_box(&self, coords: &[i64]) -> Option<Vec<(i64, i64)>> {
        (0..self.rank())
            .map(|d| self.owned_range(d, coords))
            .collect()
    }

    /// Owned data as an integer set over fresh dimension names `e0..` for
    /// a concrete processor.
    pub fn owned_set(&self, coords: &[i64]) -> Set {
        let space: Vec<String> = (0..self.rank()).map(|d| format!("e{d}")).collect();
        match self.owned_box(coords) {
            None => Set::empty(&space),
            Some(ranges) => {
                let lo: Vec<i64> = ranges.iter().map(|r| r.0).collect();
                let hi: Vec<i64> = ranges.iter().map(|r| r.1).collect();
                Set::rect(&space, &lo, &hi)
            }
        }
    }
}

/// The resolved distribution environment of one unit (or the whole
/// program — arrays in COMMON share distributions by name).
#[derive(Clone, Debug, Default)]
pub struct DistEnv {
    pub grid: Option<ProcGrid>,
    pub arrays: BTreeMap<String, ArrayDist>,
}

impl DistEnv {
    pub fn dist_of(&self, array: &str) -> Option<&ArrayDist> {
        self.arrays.get(array)
    }

    /// Two arrays have "the same data partition" (§5's identity rule) if
    /// their distributed dimensions map identically.
    pub fn same_partition(&self, a: &str, b: &str) -> bool {
        match (self.arrays.get(a), self.arrays.get(b)) {
            (Some(da), Some(db)) => {
                let da_sig: Vec<(usize, &DimMap)> = da
                    .dims
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| matches!(m, DimMap::Block { .. }))
                    .collect();
                let db_sig: Vec<(usize, &DimMap)> = db
                    .dims
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| matches!(m, DimMap::Block { .. }))
                    .collect();
                da_sig == db_sig
            }
            _ => false,
        }
    }
}

/// Errors from distribution resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct DistError(pub String);

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "distribution error: {}", self.0)
    }
}

impl std::error::Error for DistError {}

/// Resolve the directives of a unit into a concrete [`DistEnv`].
///
/// `bindings` supplies values for symbolic names used in directive
/// extents and declarations (problem size, processor counts).
pub fn resolve(unit: &ProgramUnit, bindings: &BTreeMap<String, i64>) -> Result<DistEnv, DistError> {
    let eval = |e: &Expr| -> Result<i64, DistError> {
        let lin = affine(e, &unit.decls)
            .ok_or_else(|| DistError(format!("non-affine extent in unit {}", unit.name)))?;
        lin.eval(&|v| bindings.get(v).copied()).ok_or_else(|| {
            DistError(format!(
                "unbound symbol in extent `{lin}` of unit {}",
                unit.name
            ))
        })
    };

    let mut env = DistEnv::default();

    // processors
    if let Some(p) = unit.hpf.processors.first() {
        let extents: Result<Vec<i64>, _> = p.extents.iter().map(&eval).collect();
        env.grid = Some(ProcGrid {
            name: p.name.clone(),
            extents: extents?,
        });
    }
    if unit.hpf.processors.len() > 1 {
        return Err(DistError(
            "multiple PROCESSORS grids are not supported".into(),
        ));
    }

    // templates: name -> extents
    let mut templates: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for t in &unit.hpf.templates {
        let extents: Result<Vec<i64>, _> = t.extents.iter().map(&eval).collect();
        templates.insert(t.name.clone(), extents?);
    }

    // alignment: array -> (template, per-dim offsets into template dims)
    // Supported ALIGN form: a(i, j, …) WITH t(f(i), f(j), …) where each
    // template subscript is `dummy + c` or `*`-like constant (ignored).
    let mut aligns: BTreeMap<String, (String, Vec<(usize, i64)>)> = BTreeMap::new();
    for a in &unit.hpf.aligns {
        let mut dim_map: Vec<(usize, i64)> = Vec::new(); // (template_dim, offset) per dummy
        for dummy in &a.dummies {
            let mut found = None;
            for (td, sub) in a.target_subs.iter().enumerate() {
                if let Some(lin) = affine(sub, &unit.decls) {
                    if lin.coeff(dummy) == 1 && lin.num_vars() == 1 {
                        found = Some((td, lin.constant()));
                        break;
                    }
                }
            }
            dim_map.push(found.ok_or_else(|| {
                DistError(format!(
                    "ALIGN for `{}`: dummy `{dummy}` must appear as `{dummy} + c` in the target",
                    a.array
                ))
            })?);
        }
        aligns.insert(a.array.clone(), (a.target.clone(), dim_map));
    }

    // distributes: target (template or array) -> formats
    let mut dist_formats: BTreeMap<String, (Vec<DistFormat>, Option<String>)> = BTreeMap::new();
    for d in &unit.hpf.distributes {
        for t in &d.targets {
            dist_formats.insert(t.clone(), (d.formats.clone(), d.onto.clone()));
        }
    }

    let grid = env.grid.clone();

    // build per-array distributions
    for (name, decl) in &unit.decls.vars {
        if decl.rank() == 0 {
            continue;
        }
        // concrete bounds
        let bounds: Result<Vec<(i64, i64)>, DistError> = decl
            .dims
            .iter()
            .map(|(lo, hi)| Ok((eval(lo)?, eval(hi)?)))
            .collect();
        let bounds = match bounds {
            Ok(b) => b,
            // arrays with unbindable bounds (e.g. dummies in callees we
            // never distribute) stay undistributed / unknown
            Err(_) => continue,
        };

        // find the distribution: directly on the array, or via alignment
        let (formats_onto, align_map) = if let Some(f) = dist_formats.get(name) {
            (Some(f.clone()), None)
        } else if let Some((tname, dmap)) = aligns.get(name) {
            (
                dist_formats.get(tname).cloned(),
                Some((tname.clone(), dmap.clone())),
            )
        } else {
            (None, None)
        };

        let Some((formats, _onto)) = formats_onto else {
            env.arrays.insert(
                name.clone(),
                ArrayDist {
                    array: name.clone(),
                    dims: vec![DimMap::Serial; decl.rank()],
                    bounds,
                },
            );
            continue;
        };

        let grid = grid
            .as_ref()
            .ok_or_else(|| DistError("DISTRIBUTE without a PROCESSORS grid".into()))?;

        // formats apply to the *target* dims (template or the array
        // itself); map back to array dims
        let mut dims = vec![DimMap::Serial; decl.rank()];
        // assign processor-grid dims to BLOCK formats in order
        let block_positions: Vec<usize> = formats
            .iter()
            .enumerate()
            .filter(|(_, f)| !matches!(f, DistFormat::Star))
            .map(|(i, _)| i)
            .collect();
        if block_positions.len() != grid.extents.len() {
            return Err(DistError(format!(
                "distribution of `{name}` has {} distributed dims but grid `{}` has {}",
                block_positions.len(),
                grid.name,
                grid.extents.len()
            )));
        }
        for (pdim, tdim) in block_positions.iter().enumerate() {
            // which array dim maps to target dim tdim?
            let (array_dim, offset) = match &align_map {
                None => (*tdim, 0i64),
                Some((_t, dmap)) => {
                    match dmap.iter().enumerate().find(|(_, (td, _))| td == tdim) {
                        Some((ad, (_, off))) => (ad, *off),
                        None => continue, // distributed template dim not aligned: replicate
                    }
                }
            };
            if array_dim >= decl.rank() {
                return Err(DistError(format!(
                    "distribution of `{name}`: target dim {tdim} out of range"
                )));
            }
            let extent = match &align_map {
                None => bounds[array_dim].1 - bounds[array_dim].0 + 1,
                Some((tname, _)) => {
                    let t = templates.get(tname).ok_or_else(|| {
                        DistError(format!("ALIGN target template `{tname}` not declared"))
                    })?;
                    t[*tdim]
                }
            };
            let nproc = grid.extents[pdim];
            let block = match formats[*tdim] {
                DistFormat::Block => (extent + nproc - 1) / nproc,
                DistFormat::BlockK(k) => k,
                DistFormat::Cyclic => {
                    return Err(DistError(format!(
                        "CYCLIC distribution of `{name}` is not supported (the paper's codes use BLOCK)"
                    )))
                }
                DistFormat::Star => unreachable!(),
            };
            dims[array_dim] = DimMap::Block {
                pdim,
                block,
                align_offset: offset,
                nproc,
            };
        }
        env.arrays.insert(
            name.clone(),
            ArrayDist {
                array: name.clone(),
                dims,
                bounds,
            },
        );
    }

    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_fortran::parse;

    fn env_of(src: &str, binds: &[(&str, i64)]) -> DistEnv {
        let p = parse(src).expect("parse");
        let b: BTreeMap<String, i64> = binds.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        resolve(&p.units[0], &b).expect("resolve")
    }

    const SRC_2D: &str = "
      program t
      parameter (n = 16)
      double precision u(5, n, n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute u(*, *, block, block) onto p
      u(1, 1, 1, 1) = 0.0
      end
";

    #[test]
    fn grid_rank_coords_roundtrip() {
        let g = ProcGrid {
            name: "p".into(),
            extents: vec![3, 2],
        };
        for r in g.ranks() {
            assert_eq!(g.rank(&g.coords(r)), r);
        }
        assert_eq!(g.nprocs(), 6);
    }

    #[test]
    fn block_block_distribution() {
        let env = env_of(SRC_2D, &[]);
        let u = env.dist_of("u").unwrap();
        assert_eq!(u.rank(), 4);
        assert!(matches!(u.dims[0], DimMap::Serial));
        assert!(matches!(
            u.dims[2],
            DimMap::Block {
                pdim: 0,
                block: 8,
                ..
            }
        ));
        assert!(matches!(
            u.dims[3],
            DimMap::Block {
                pdim: 1,
                block: 8,
                ..
            }
        ));

        // ownership: j=1..8 on pj=0, 9..16 on pj=1
        assert_eq!(
            u.owner(&[1, 1, 1, 1], env.grid.as_ref().unwrap()),
            vec![0, 0]
        );
        assert_eq!(
            u.owner(&[1, 1, 9, 1], env.grid.as_ref().unwrap()),
            vec![1, 0]
        );
        assert_eq!(
            u.owner(&[1, 1, 8, 16], env.grid.as_ref().unwrap()),
            vec![0, 1]
        );

        assert_eq!(u.owned_range(2, &[0, 0]), Some((1, 8)));
        assert_eq!(u.owned_range(2, &[1, 0]), Some((9, 16)));
        assert_eq!(
            u.owned_range(1, &[1, 0]),
            Some((1, 16)),
            "serial dim fully owned"
        );
        let b = u.owned_box(&[1, 1]).unwrap();
        assert_eq!(b, vec![(1, 5), (1, 16), (9, 16), (9, 16)]);
    }

    #[test]
    fn owned_set_is_rect() {
        let env = env_of(SRC_2D, &[]);
        let u = env.dist_of("u").unwrap();
        let s = u.owned_set(&[0, 1]);
        assert!(s.contains(&[1, 1, 1, 9], &|_| None));
        assert!(!s.contains(&[1, 1, 9, 9], &|_| None));
    }

    #[test]
    fn align_with_template_and_offset() {
        let env = env_of(
            "
      program t
      parameter (n = 12)
      double precision a(n), b(0:n + 1)
!hpf$ processors p(3)
!hpf$ template tm(n)
!hpf$ align a(i) with tm(i)
!hpf$ align b(i) with tm(i + 1)
!hpf$ distribute tm(block) onto p
      a(1) = 0.0
      end
",
            &[],
        );
        let a = env.dist_of("a").unwrap();
        let b = env.dist_of("b").unwrap();
        // template block size 4: a(1..4) on p0
        assert_eq!(a.owned_range(0, &[0]), Some((1, 4)));
        assert_eq!(a.owned_range(0, &[2]), Some((9, 12)));
        // b(i) aligned with tm(i+1): b(0..3) on p0 (tm 1..4)
        assert_eq!(b.owned_range(0, &[0]), Some((0, 3)));
        assert_eq!(
            b.owned_range(0, &[2]),
            Some((8, 13)).map(|(l, h)| (l, h.min(13)))
        );
    }

    #[test]
    fn same_partition_identity() {
        let env = env_of(
            "
      program t
      parameter (n = 8)
      double precision a(n, n), b(n, n), c(n)
!hpf$ processors p(2)
!hpf$ distribute (block, *) onto p :: a, b
      a(1, 1) = 0.0
      end
",
            &[],
        );
        assert!(env.same_partition("a", "b"));
        assert!(!env.same_partition("a", "c"));
    }

    #[test]
    fn undistributed_array_serial() {
        let env = env_of(SRC_2D, &[]);
        // implicit scalars have no entry; declared array without
        // distribute would be Serial — u is the only array here.
        assert!(env.dist_of("u").unwrap().is_distributed());
    }

    #[test]
    fn symbolic_extent_binding() {
        let env = env_of(
            "
      program t
      integer n
      double precision a(n)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
      a(1) = 0.0
      end
",
            &[("n", 20)],
        );
        let a = env.dist_of("a").unwrap();
        assert_eq!(a.bounds, vec![(1, 20)]);
        assert_eq!(a.owned_range(0, &[3]), Some((16, 20)));
    }

    #[test]
    fn cyclic_rejected() {
        let p = parse(
            "
      program t
      double precision a(8)
!hpf$ processors p(2)
!hpf$ distribute a(cyclic) onto p
      a(1) = 0.0
      end
",
        )
        .unwrap();
        assert!(resolve(&p.units[0], &BTreeMap::new()).is_err());
    }
}

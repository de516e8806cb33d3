//! Grammar-directed generation of valid HPF programs in the compiler's
//! Fortran subset.
//!
//! A [`ProgramSpec`] is the structured genotype: arrays (with BLOCK
//! distributions, optional ALIGN offsets, optional undistributed leading
//! dimensions), a kernel sequence (stencils, axpys, wavefront sweeps,
//! privatizable-NEW nests, LOCALIZE nests, call sites), an optional time
//! loop and an optional guard. [`ProgramSpec::render`] turns it into
//! Fortran source with *symbolic* processor-grid extents (`np1`, `np2`),
//! so one generated program compiles unchanged at every geometry — the
//! grid is supplied through `CompileOptions::bindings`, exactly like the
//! NAS drivers do.
//!
//! Everything the generator emits is designed to be *semantically valid*
//! (every read is preceded by a full-domain initialization; subscript
//! offsets never leave the declared bounds; divisions are by non-zero
//! literals), so any downstream disagreement indicts the compiler, not
//! the input.

use crate::rng::Rng;

/// Element type of a generated array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElemTy {
    Double,
    Integer,
}

/// How distributed arrays are mapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistMode {
    /// `!hpf$ distribute (block, …) onto p :: a, b, …`
    Direct,
    /// `!hpf$ template t(…)` + per-array `align` with affine offsets.
    Template,
}

/// One generated array.
#[derive(Clone, Debug)]
pub struct ArraySpec {
    pub name: String,
    pub ty: ElemTy,
    /// Extent of an undistributed leading dimension (`u(3, n, n)` with a
    /// `(*, block, block)` distribution), if any. Only in Direct mode.
    pub lead: Option<i64>,
    /// ALIGN offset per distributed dimension (Template mode; all zero
    /// in Direct mode).
    pub align: Vec<i64>,
}

/// One term of a stencil right-hand side: `coef * src(i ± off, …)`.
#[derive(Clone, Debug)]
pub struct StencilTerm {
    /// Index into `ProgramSpec::arrays`.
    pub src: usize,
    /// Per-distributed-dimension subscript offset (|off| ≤ 2).
    pub offs: Vec<i64>,
    /// Coefficient, in twentieths (rendered as `k * 0.05`).
    pub coef20: i64,
}

/// A kernel: one loop nest (or call) appended to the program body.
#[derive(Clone, Debug)]
pub enum Kernel {
    /// `dst(i,j) = Σ coefᵏ * srcᵏ(i±o, j±o)` — dst ∉ srcs.
    Stencil {
        dst: usize,
        terms: Vec<StencilTerm>,
        /// Multiply the first term by the replicated scalar `s0`.
        use_scalar: bool,
        /// Wrap the nest in `if (n .gt. G) then … endif`.
        guard: Option<i64>,
    },
    /// `dst = alpha*src + beta*dst` elementwise.
    Axpy {
        dst: usize,
        src: usize,
        a20: i64,
        b20: i64,
    },
    /// First-order recurrence along a distributed dimension — a
    /// wavefront the compiler must pipeline:
    /// `arr(i) = arr(i) - coef*arr(i∓1) + src(i)`.
    Sweep {
        arr: usize,
        src: usize,
        /// Swept distributed dimension (0-based).
        dim: usize,
        forward: bool,
        coef20: i64,
    },
    /// Privatizable scalar (§4.1): `independent, new(sc)` loop where
    /// `sc` is defined then used inside every iteration.
    NewScalar { dst: usize, src: usize, off: i64 },
    /// Privatizable line buffer (§4.1, the NAS `cv` idiom): an
    /// `independent, new(wv)` outer loop; each iteration fills
    /// `wv(1..n)` from `src` then reads `wv(i±1)` into `dst`.
    /// Only generated for 2-D grids (the outer loop must be parallel).
    NewVector { dst: usize, src: usize },
    /// LOCALIZE (§4.2): wrapper loop marked `independent,
    /// localize(wrk)`; `wrk` is written full-domain from `src`, then
    /// `dst` reads its neighbours.
    Localize {
        wrk: usize,
        dst: usize,
        src: usize,
        off: i64,
    },
    /// `ia(i,j) = affine(i,j)` — integer data for the bitwise oracle.
    IntFill { dst: usize },
    /// `dst = src + ia(i-off, j)` — integer array feeding a double
    /// stencil (exchanges integer data).
    IntUse {
        dst: usize,
        src: usize,
        ia: usize,
        off: i64,
    },
    /// Call a generated subroutine (arrays shared through COMMON).
    Call { sub: usize },
}

/// A generated subroutine: same declarations (COMMON), own kernels.
#[derive(Clone, Debug)]
pub struct SubSpec {
    pub name: String,
    pub body: Vec<Kernel>,
}

/// The structured genotype of one generated program.
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    /// Seed this program was generated from (for reports).
    pub seed: u64,
    /// Problem extent per distributed dimension.
    pub n: i64,
    /// Processor-grid rank (1 or 2).
    pub grid_rank: usize,
    pub mode: DistMode,
    pub arrays: Vec<ArraySpec>,
    /// Main-program kernels, in order (after the init nest).
    pub body: Vec<Kernel>,
    pub subs: Vec<SubSpec>,
    /// Repetitions of the time loop around `body` (0 = no time loop).
    pub time_steps: i64,
    /// Arrays (and the NEW vector) live in COMMON blocks.
    pub use_common: bool,
    /// End the main program with one statement subscripted by the loop
    /// variables: each holds the last value of the last loop over it, on
    /// every rank, whichever of the loop's iterations the rank ran.
    /// [`generate`] leaves it off — `benchmark/` renders what `generate`
    /// returns, and its inputs are frozen — and the campaign turns it on.
    pub reads_loop_vars_at_end: bool,
    /// End the time loop's body with one statement that needs no
    /// communication plan — `continue`, or a replicated scalar
    /// assignment, by the seed. The kernels beside it must still be
    /// planned one by one, their exchanges inside the time loop. Off in
    /// [`generate`] and on in the campaign, as above.
    pub statement_in_time_loop: bool,
    /// Put a sweep's other distributed loop outside the swept one, a
    /// strip running forward, backward or by stride 3 by the seed. Off
    /// in [`generate`] and on in the campaign, as above.
    pub strip_outside_sweep: bool,
}

/// Generation tuning.
#[derive(Clone, Debug)]
pub struct GenOptions {
    /// Largest per-dimension processor count the driver will use; the
    /// problem size is chosen so every block is at least 2 wide.
    pub max_pdim: i64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions { max_pdim: 4 }
    }
}

impl ProgramSpec {
    /// Indices of double-typed arrays without a leading dimension.
    fn plain_doubles(&self) -> Vec<usize> {
        self.arrays
            .iter()
            .enumerate()
            .filter(|(_, a)| a.ty == ElemTy::Double && a.lead.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Does any kernel (main or sub) use the NEW vector buffer?
    pub fn uses_new_vector(&self) -> bool {
        self.all_kernels()
            .any(|k| matches!(k, Kernel::NewVector { .. }))
    }

    /// Does any kernel use the NEW scalar?
    pub fn uses_new_scalar(&self) -> bool {
        self.all_kernels()
            .any(|k| matches!(k, Kernel::NewScalar { .. }))
    }

    /// Does any main kernel reference the replicated scalar `s0`?
    pub fn uses_s0(&self) -> bool {
        self.body.iter().any(|k| {
            matches!(
                k,
                Kernel::Stencil {
                    use_scalar: true,
                    ..
                }
            )
        })
    }

    /// All kernels of main plus every *referenced* subroutine.
    pub fn all_kernels(&self) -> impl Iterator<Item = &Kernel> {
        let called: Vec<usize> = self
            .body
            .iter()
            .filter_map(|k| match k {
                Kernel::Call { sub } => Some(*sub),
                _ => None,
            })
            .collect();
        self.body.iter().chain(
            self.subs
                .iter()
                .enumerate()
                .filter(move |(i, _)| called.contains(i))
                .flat_map(|(_, s)| s.body.iter()),
        )
    }
}

/// Generate one program spec from `seed`.
pub fn generate(seed: u64, opts: &GenOptions) -> ProgramSpec {
    let mut rng = Rng::new(seed).fork(0xf0);
    let grid_rank = if rng.chance(1, 2) { 1 } else { 2 };
    // Every processor's block must be non-empty at every per-dim count
    // up to max_pdim (a 1-D grid absorbs the whole processor total),
    // for both distributed extents in play: n (direct) and n + 2
    // (template). BLOCK gives the last processor m - (np-1)*ceil(m/np)
    // cells, which can be ≤ 0 even when m ≥ 2*np; demand ≥ 3 so an
    // ALIGN offset of up to 2 still leaves the boundary blocks
    // populated.
    let block_ok = |n: i64| {
        (2..=opts.max_pdim).all(|np| {
            [n, n + 2].iter().all(|&m| {
                let c = (m + np - 1) / np;
                c >= 3 && m - (np - 1) * c >= 3
            })
        })
    };
    let floor = 2 * opts.max_pdim.max(4);
    let mut n = rng.range(floor, (floor + 8).max(16));
    while !block_ok(n) {
        n += 1;
    }
    let use_subs = rng.chance(1, 3);
    let use_common = use_subs || rng.chance(1, 3);
    // leading dimensions and templates don't mix (ALIGN collapse is out
    // of the generated subset); integer arrays work in both modes
    let mode = if rng.chance(1, 2) {
        DistMode::Direct
    } else {
        DistMode::Template
    };

    let n_fields = rng.range(2, 4) as usize;
    let mut arrays = Vec::new();
    let names = ["a", "b", "c", "d"];
    let lead_at = if mode == DistMode::Direct && rng.chance(1, 3) {
        Some(rng.index(n_fields))
    } else {
        None
    };
    for (f, name) in names.iter().enumerate().take(n_fields) {
        let align = if mode == DistMode::Template && lead_at != Some(f) {
            (0..grid_rank).map(|_| rng.range(0, 2)).collect()
        } else {
            vec![0; grid_rank]
        };
        arrays.push(ArraySpec {
            name: name.to_string(),
            ty: ElemTy::Double,
            lead: if lead_at == Some(f) { Some(3) } else { None },
            align,
        });
    }
    // the LOCALIZE scratch field (distributed, like NAS rho_i/us/…)
    let wrk = arrays.len();
    arrays.push(ArraySpec {
        name: "wl".into(),
        ty: ElemTy::Double,
        lead: None,
        align: vec![0; grid_rank],
    });
    // optional integer array
    let ia = if rng.chance(1, 2) {
        arrays.push(ArraySpec {
            name: "ia".into(),
            ty: ElemTy::Integer,
            lead: None,
            align: vec![0; grid_rank],
        });
        Some(arrays.len() - 1)
    } else {
        None
    };

    let mut spec = ProgramSpec {
        seed,
        n,
        grid_rank,
        mode,
        arrays,
        body: Vec::new(),
        subs: Vec::new(),
        time_steps: 0,
        use_common,
        reads_loop_vars_at_end: false,
        statement_in_time_loop: false,
        strip_outside_sweep: false,
    };

    // subroutines (stencil/axpy/sweep bodies over the COMMON arrays)
    if use_subs {
        let n_subs = rng.range(1, 2) as usize;
        for s in 0..n_subs {
            let n_kern = rng.range(1, 2) as usize;
            let body = (0..n_kern)
                .map(|_| gen_simple_kernel(&mut rng, &spec, false))
                .collect();
            spec.subs.push(SubSpec {
                name: format!("skern{}", s + 1),
                body,
            });
        }
    }

    // main kernel sequence
    let n_kern = rng.range(2, 5) as usize;
    for _ in 0..n_kern {
        let k = gen_main_kernel(&mut rng, &spec, wrk, ia);
        spec.body.push(k);
    }
    // make sure call sites actually appear when subs were generated
    if use_subs && !spec.body.iter().any(|k| matches!(k, Kernel::Call { .. })) {
        let sub = rng.index(spec.subs.len());
        spec.body.push(Kernel::Call { sub });
    }
    if rng.chance(1, 2) {
        spec.time_steps = 2;
        // An If-guarded nest inside the time loop blocks
        // communication-sensitive loop distribution of the `do it`
        // body, so the compiler (rightly) rejects any later nest that
        // reads the guarded write across processors. Keep guards and
        // time loops mutually exclusive.
        for k in &mut spec.body {
            if let Kernel::Stencil { guard, .. } = k {
                *guard = None;
            }
        }
    }
    spec
}

/// A kernel legal in any unit: stencil, axpy, or sweep. `in_main`
/// gates the features that depend on main-only state (the replicated
/// scalar `s0`, guards).
fn gen_simple_kernel(rng: &mut Rng, spec: &ProgramSpec, in_main: bool) -> Kernel {
    let fields = spec.plain_doubles();
    match rng.below(4) {
        0 => {
            let dst = *rng.pick(&fields);
            let src = *rng.pick(&fields);
            Kernel::Axpy {
                dst,
                src,
                a20: nz20(rng),
                b20: nz20(rng),
            }
        }
        1 => {
            let arr = *rng.pick(&fields);
            let mut src = *rng.pick(&fields);
            if src == arr {
                src = fields[(fields.iter().position(|&f| f == arr).unwrap() + 1) % fields.len()];
            }
            Kernel::Sweep {
                arr,
                src,
                dim: rng.index(spec.grid_rank),
                forward: rng.chance(1, 2),
                coef20: rng.range(1, 6),
            }
        }
        _ => gen_stencil(rng, spec, in_main),
    }
}

fn gen_stencil(rng: &mut Rng, spec: &ProgramSpec, in_main: bool) -> Kernel {
    let fields = spec.plain_doubles();
    let dst = *rng.pick(&fields);
    let srcs: Vec<usize> = fields.iter().copied().filter(|&f| f != dst).collect();
    let lead_srcs: Vec<usize> = spec
        .arrays
        .iter()
        .enumerate()
        .filter(|(i, a)| a.ty == ElemTy::Double && a.lead.is_some() && *i != dst)
        .map(|(i, _)| i)
        .collect();
    let n_terms = rng.range(2, 4) as usize;
    let mut terms = Vec::new();
    for _ in 0..n_terms {
        let src = if !lead_srcs.is_empty() && rng.chance(1, 3) {
            *rng.pick(&lead_srcs)
        } else {
            *rng.pick(&srcs)
        };
        // offset exactly one dimension (affine var±c, |c| ≤ 2)
        let mut offs = vec![0i64; spec.grid_rank];
        let d = rng.index(spec.grid_rank);
        offs[d] = rng.range(-2, 2);
        terms.push(StencilTerm {
            src,
            offs,
            coef20: nz20(rng),
        });
    }
    Kernel::Stencil {
        dst,
        terms,
        use_scalar: in_main && rng.chance(1, 4),
        guard: if in_main && rng.chance(1, 4) {
            // half the guards are always-true, half never-true
            Some(if rng.chance(1, 2) { 4 } else { 99 })
        } else {
            None
        },
    }
}

fn gen_main_kernel(rng: &mut Rng, spec: &ProgramSpec, wrk: usize, ia: Option<usize>) -> Kernel {
    let fields = spec.plain_doubles();
    let pick2 = |rng: &mut Rng| {
        let dst = *rng.pick(&fields);
        let srcs: Vec<usize> = fields.iter().copied().filter(|&f| f != dst).collect();
        (dst, *rng.pick(&srcs))
    };
    loop {
        match rng.below(8) {
            0 if !spec.subs.is_empty() => {
                return Kernel::Call {
                    sub: rng.index(spec.subs.len()),
                }
            }
            1 => {
                let (dst, src) = pick2(rng);
                return Kernel::NewScalar {
                    dst,
                    src,
                    off: rng.range(1, 2),
                };
            }
            2 if spec.grid_rank == 2 => {
                let (dst, src) = pick2(rng);
                return Kernel::NewVector { dst, src };
            }
            3 => {
                // The localized scratch must not double as the kernel's
                // dst or src: `wl(i) = wl(i-o) + wl(i+o)` is a sweep
                // with a loop-carried dependence, and redundant
                // recomputation over the extended region (§4.2) is only
                // correct for the write-then-read idiom (NAS rho_i/us).
                let others: Vec<usize> = fields.iter().copied().filter(|&f| f != wrk).collect();
                let dst = *rng.pick(&others);
                let srcs: Vec<usize> = others.iter().copied().filter(|&f| f != dst).collect();
                if srcs.is_empty() {
                    continue;
                }
                return Kernel::Localize {
                    wrk,
                    dst,
                    src: *rng.pick(&srcs),
                    off: rng.range(1, 2),
                };
            }
            4 if ia.is_some() => {
                return Kernel::IntFill { dst: ia.unwrap() };
            }
            5 if ia.is_some() => {
                let (dst, src) = pick2(rng);
                return Kernel::IntUse {
                    dst,
                    src,
                    ia: ia.unwrap(),
                    off: rng.range(1, 2),
                };
            }
            6 | 7 => return gen_simple_kernel(rng, spec, true),
            _ => continue, // re-draw when the pick's guard failed
        }
    }
}

/// Non-zero coefficient in twentieths, |coef| ≤ 0.5.
fn nz20(rng: &mut Rng) -> i64 {
    let v = rng.range(1, 10);
    if rng.chance(1, 2) {
        v
    } else {
        -v
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn coef(c20: i64) -> String {
    format!("{:.2}d0", c20 as f64 * 0.05)
}

/// Loop-variable name of distributed dimension `d` (innermost = `i`).
fn lv(d: usize) -> &'static str {
    ["i", "j"][d]
}

impl ProgramSpec {
    /// Subscript list for array `ai` at the point `(i±offs)`, including
    /// the leading dimension (indexed by `m`) when the array has one.
    fn subs_at(&self, ai: usize, offs: &[i64]) -> String {
        let a = &self.arrays[ai];
        let mut parts = Vec::new();
        if a.lead.is_some() {
            parts.push("m".to_string());
        }
        for d in 0..self.grid_rank {
            let o = offs.get(d).copied().unwrap_or(0);
            use std::cmp::Ordering::*;
            parts.push(match o.cmp(&0) {
                Equal => lv(d).to_string(),
                Greater => format!("{} + {o}", lv(d)),
                Less => format!("{} - {}", lv(d), -o),
            });
        }
        parts.join(", ")
    }

    /// Declaration block shared by every unit (the NPB `include` idiom).
    fn decls_block(&self) -> String {
        let mut out = String::new();
        out.push_str("      parameter (n = ");
        out.push_str(&self.n.to_string());
        out.push_str(")\n");
        out.push_str("      integer np1, np2, i, j, m, it, one\n");
        let dims = vec!["n"; self.grid_rank].join(", ");
        let mut dbl = Vec::new();
        let mut int = Vec::new();
        for a in &self.arrays {
            let shape = match a.lead {
                Some(l) => format!("{}({l}, {dims})", a.name),
                None => format!("{}({dims})", a.name),
            };
            match a.ty {
                ElemTy::Double => dbl.push(shape),
                ElemTy::Integer => int.push(shape),
            }
        }
        if !dbl.is_empty() {
            out.push_str(&format!("      double precision {}\n", dbl.join(", ")));
        }
        if !int.is_empty() {
            out.push_str(&format!("      integer {}\n", int.join(", ")));
        }
        if self.use_common {
            let names: Vec<&str> = self.arrays.iter().map(|a| a.name.as_str()).collect();
            out.push_str(&format!("      common /flds/ {}\n", names.join(", ")));
        }
        // HPF mapping
        let grid = if self.grid_rank == 1 {
            "np1"
        } else {
            "np1, np2"
        };
        out.push_str(&format!("!hpf$ processors p({grid})\n"));
        match self.mode {
            DistMode::Direct => {
                // group arrays by leading-dimension presence
                let plain: Vec<&str> = self
                    .arrays
                    .iter()
                    .filter(|a| a.lead.is_none())
                    .map(|a| a.name.as_str())
                    .collect();
                let led: Vec<&str> = self
                    .arrays
                    .iter()
                    .filter(|a| a.lead.is_some())
                    .map(|a| a.name.as_str())
                    .collect();
                let blocks = vec!["block"; self.grid_rank].join(", ");
                if !plain.is_empty() {
                    out.push_str(&format!(
                        "!hpf$ distribute ({blocks}) onto p :: {}\n",
                        plain.join(", ")
                    ));
                }
                if !led.is_empty() {
                    out.push_str(&format!(
                        "!hpf$ distribute (*, {blocks}) onto p :: {}\n",
                        led.join(", ")
                    ));
                }
            }
            DistMode::Template => {
                let text = vec!["n + 2"; self.grid_rank].join(", ");
                out.push_str(&format!("!hpf$ template t({text})\n"));
                for a in &self.arrays {
                    let dummies: Vec<String> =
                        (0..self.grid_rank).map(|d| lv(d).to_string()).collect();
                    let tsubs: Vec<String> = a
                        .align
                        .iter()
                        .enumerate()
                        .map(|(d, o)| {
                            if *o == 0 {
                                lv(d).to_string()
                            } else {
                                format!("{} + {o}", lv(d))
                            }
                        })
                        .collect();
                    out.push_str(&format!(
                        "!hpf$ align {}({}) with t({})\n",
                        a.name,
                        dummies.join(", "),
                        tsubs.join(", ")
                    ));
                }
                let blocks = vec!["block"; self.grid_rank].join(", ");
                out.push_str(&format!("!hpf$ distribute t({blocks}) onto p\n"));
            }
        }
        out
    }

    /// Open the canonical full-domain nest (`do j`, `do i`), returning
    /// the per-line indentation for the body.
    fn open_nest(&self, out: &mut String, ind: usize, lo_off: i64, hi_off: i64) -> usize {
        let mut depth = ind;
        for d in (0..self.grid_rank).rev() {
            let lo = if lo_off == 0 {
                "1".to_string()
            } else {
                format!("{}", 1 + lo_off)
            };
            let hi = if hi_off == 0 {
                "n".to_string()
            } else {
                format!("n - {hi_off}")
            };
            push_line(out, depth, &format!("do {} = {lo}, {hi}", lv(d)));
            depth += 3;
        }
        depth
    }

    fn close_nest(&self, out: &mut String, ind: usize) {
        let mut depth = ind + 3 * (self.grid_rank - 1);
        for _ in 0..self.grid_rank {
            push_line(out, depth, "enddo");
            depth = depth.saturating_sub(3);
        }
    }

    /// Render one kernel at indentation `ind`.
    fn render_kernel(&self, k: &Kernel, out: &mut String, ind: usize) {
        match k {
            Kernel::Stencil {
                dst,
                terms,
                use_scalar,
                guard,
            } => {
                let max_off = terms
                    .iter()
                    .flat_map(|t| t.offs.iter().map(|o| o.abs()))
                    .max()
                    .unwrap_or(0);
                let mut ind = ind;
                if let Some(g) = guard {
                    push_line(out, ind, &format!("if (n .gt. {g}) then"));
                    ind += 3;
                }
                let body_ind = self.open_nest(out, ind, max_off, max_off);
                let lead = self.arrays[*dst]
                    .lead
                    .or_else(|| terms.iter().find_map(|t| self.arrays[t.src].lead));
                let (body_ind, m_loop) = match lead {
                    Some(l) => {
                        push_line(out, body_ind, &format!("do m = 1, {l}"));
                        (body_ind + 3, true)
                    }
                    None => (body_ind, false),
                };
                let rhs: Vec<String> = terms
                    .iter()
                    .enumerate()
                    .map(|(idx, t)| {
                        let base = format!(
                            "{} * {}({})",
                            coef(t.coef20),
                            self.arrays[t.src].name,
                            self.subs_at(t.src, &t.offs)
                        );
                        if idx == 0 && *use_scalar {
                            format!("s0 * {base}")
                        } else {
                            base
                        }
                    })
                    .collect();
                push_line(
                    out,
                    body_ind,
                    &format!(
                        "{}({}) = {}",
                        self.arrays[*dst].name,
                        self.subs_at(*dst, &[]),
                        rhs.join(" + ")
                    ),
                );
                if m_loop {
                    push_line(out, body_ind - 3, "enddo");
                }
                self.close_nest(out, ind);
                if guard.is_some() {
                    push_line(out, ind - 3, "endif");
                }
            }
            Kernel::Axpy { dst, src, a20, b20 } => {
                let body_ind = self.open_nest(out, ind, 0, 0);
                let d = &self.arrays[*dst].name;
                let s = &self.arrays[*src].name;
                let subs = self.subs_at(*dst, &[]);
                let ssubs = self.subs_at(*src, &[]);
                push_line(
                    out,
                    body_ind,
                    &format!(
                        "{d}({subs}) = {} * {s}({ssubs}) + {} * {d}({subs})",
                        coef(*a20),
                        coef(*b20)
                    ),
                );
                self.close_nest(out, ind);
            }
            Kernel::Sweep {
                arr,
                src,
                dim,
                forward,
                coef20,
            } => {
                // swept loop outermost (the NAS y_solve shape), other
                // distributed dims inside it — or outside it, as strips
                let a = &self.arrays[*arr].name;
                let s = &self.arrays[*src].name;
                let mut depth = ind;
                let sweep_hdr = if *forward {
                    format!("do {} = 2, n", lv(*dim))
                } else {
                    format!("do {} = n - 1, 1, -1", lv(*dim))
                };
                let strip = self.strip_outside_sweep;
                let ranges = ["1, n", "n, 1, -1", "1, n, 3"];
                let range = ranges[if strip { self.seed as usize % 3 } else { 0 }];
                let others = (0..self.grid_rank).rev().filter(|d| d != dim);
                let mut headers: Vec<_> =
                    others.map(|d| format!("do {} = {range}", lv(d))).collect();
                headers.insert(if strip { headers.len() } else { 0 }, sweep_hdr);
                for header in headers {
                    push_line(out, depth, &header);
                    depth += 3;
                }
                let mut offs = vec![0i64; self.grid_rank];
                offs[*dim] = if *forward { -1 } else { 1 };
                push_line(
                    out,
                    depth,
                    &format!(
                        "{a}({ix}) = {a}({ix}) - {c} * {a}({prev}) + {c2} * {s}({sx})",
                        ix = self.subs_at(*arr, &[]),
                        prev = self.subs_at(*arr, &offs),
                        sx = self.subs_at(*src, &[]),
                        c = coef(*coef20),
                        c2 = coef(1),
                    ),
                );
                for _ in 0..self.grid_rank {
                    depth -= 3;
                    push_line(out, depth, "enddo");
                }
            }
            Kernel::NewScalar { dst, src, off } => {
                push_line(out, 0, "!hpf$ independent, new(sc)");
                let body_ind = self.open_nest(out, ind, *off, *off);
                let s = &self.arrays[*src].name;
                let mut lo = vec![0i64; self.grid_rank];
                let mut hi = vec![0i64; self.grid_rank];
                lo[0] = -*off;
                hi[0] = *off;
                push_line(
                    out,
                    body_ind,
                    &format!(
                        "sc = {s}({}) + {s}({})",
                        self.subs_at(*src, &lo),
                        self.subs_at(*src, &hi)
                    ),
                );
                push_line(
                    out,
                    body_ind,
                    &format!(
                        "{}({}) = 0.50d0 * sc",
                        self.arrays[*dst].name,
                        self.subs_at(*dst, &[])
                    ),
                );
                self.close_nest(out, ind);
            }
            Kernel::NewVector { dst, src } => {
                // outer independent loop over j, per-iteration line
                // buffer wv(0:n+1) — the NAS cv idiom
                let s = &self.arrays[*src].name;
                let d = &self.arrays[*dst].name;
                push_line(out, 0, "!hpf$ independent, new(wv)");
                push_line(out, ind, "do j = 1, n");
                push_line(out, ind + 3, "do i = 1, n");
                push_line(out, ind + 6, &format!("wv(i) = {s}(i, j) * 1.10d0"));
                push_line(out, ind + 3, "enddo");
                push_line(out, ind + 3, "do i = 2, n - 1");
                push_line(out, ind + 6, &format!("{d}(i, j) = wv(i - 1) + wv(i + 1)"));
                push_line(out, ind + 3, "enddo");
                push_line(out, ind, "enddo");
            }
            Kernel::Localize { wrk, dst, src, off } => {
                let w = &self.arrays[*wrk].name;
                let s = &self.arrays[*src].name;
                let d = &self.arrays[*dst].name;
                push_line(out, 0, &format!("!hpf$ independent, localize({w})"));
                push_line(out, ind, "do one = 1, 1");
                let i2 = ind + 3;
                let body_ind = self.open_nest(out, i2, 0, 0);
                push_line(
                    out,
                    body_ind,
                    &format!(
                        "{w}({}) = {s}({}) * 1.10d0",
                        self.subs_at(*wrk, &[]),
                        self.subs_at(*src, &[])
                    ),
                );
                self.close_nest(out, i2);
                let body_ind = self.open_nest(out, i2, *off, *off);
                let mut lo = vec![0i64; self.grid_rank];
                let mut hi = vec![0i64; self.grid_rank];
                lo[0] = -*off;
                hi[0] = *off;
                push_line(
                    out,
                    body_ind,
                    &format!(
                        "{d}({}) = {w}({}) + {w}({})",
                        self.subs_at(*dst, &[]),
                        self.subs_at(*wrk, &lo),
                        self.subs_at(*wrk, &hi)
                    ),
                );
                self.close_nest(out, i2);
                push_line(out, ind, "enddo");
            }
            Kernel::IntFill { dst } => {
                let body_ind = self.open_nest(out, ind, 0, 0);
                let d = &self.arrays[*dst].name;
                let idx: Vec<String> = (0..self.grid_rank)
                    .map(|dd| format!("{} * {}", dd + 2, lv(dd)))
                    .collect();
                push_line(
                    out,
                    body_ind,
                    &format!("{d}({}) = {} + 1", self.subs_at(*dst, &[]), idx.join(" + ")),
                );
                self.close_nest(out, ind);
            }
            Kernel::IntUse { dst, src, ia, off } => {
                let body_ind = self.open_nest(out, ind, *off, *off);
                let mut offs = vec![0i64; self.grid_rank];
                offs[0] = -*off;
                push_line(
                    out,
                    body_ind,
                    &format!(
                        "{}({}) = {}({}) + 0.05d0 * {}({})",
                        self.arrays[*dst].name,
                        self.subs_at(*dst, &[]),
                        self.arrays[*src].name,
                        self.subs_at(*src, &[]),
                        self.arrays[*ia].name,
                        self.subs_at(*ia, &offs)
                    ),
                );
                self.close_nest(out, ind);
            }
            Kernel::Call { sub } => {
                push_line(out, ind, &format!("call {}", self.subs[*sub].name));
            }
        }
    }

    /// The initialization nest: writes every array over its full domain
    /// with index-dependent values (so a stale ghost cell is never
    /// accidentally equal to the true value).
    fn render_init(&self, out: &mut String, ind: usize) {
        let body_ind = self.open_nest(out, ind, 0, 0);
        for (ai, a) in self.arrays.iter().enumerate() {
            let idx: Vec<String> = (0..self.grid_rank)
                .map(|d| {
                    format!(
                        "{:.2}d0 * {}",
                        0.01 * (d + 1) as f64 * (ai + 1) as f64,
                        lv(d)
                    )
                })
                .collect();
            match (a.ty, a.lead) {
                (ElemTy::Integer, _) => {
                    let iidx: Vec<String> = (0..self.grid_rank)
                        .map(|d| format!("{} * {}", d + 3, lv(d)))
                        .collect();
                    push_line(
                        out,
                        body_ind,
                        &format!(
                            "{}({}) = {} + {}",
                            a.name,
                            self.subs_at(ai, &[]),
                            iidx.join(" + "),
                            ai + 1
                        ),
                    );
                }
                (_, Some(l)) => {
                    push_line(out, body_ind, &format!("do m = 1, {l}"));
                    push_line(
                        out,
                        body_ind + 3,
                        &format!(
                            "{}({}) = {:.2}d0 + 0.10d0 * m + {}",
                            a.name,
                            self.subs_at(ai, &[]),
                            0.5 + 0.25 * ai as f64,
                            idx.join(" + ")
                        ),
                    );
                    push_line(out, body_ind, "enddo");
                }
                _ => {
                    push_line(
                        out,
                        body_ind,
                        &format!(
                            "{}({}) = {:.2}d0 + {}",
                            a.name,
                            self.subs_at(ai, &[]),
                            0.5 + 0.25 * ai as f64,
                            idx.join(" + ")
                        ),
                    );
                }
            }
        }
        self.close_nest(out, ind);
    }

    /// Render the spec to Fortran source. Processor-grid extents stay
    /// symbolic (`np1`, `np2`): bind them via [`grid_bindings`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        let decls = self.decls_block();
        let called: Vec<usize> = self
            .body
            .iter()
            .filter_map(|k| match k {
                Kernel::Call { sub } => Some(*sub),
                _ => None,
            })
            .collect();

        push_line(&mut out, 6, "program fz");
        out.push_str(&decls);
        if self.uses_s0() || self.uses_new_scalar() {
            push_line(&mut out, 6, "double precision s0, sc");
        }
        if self.uses_new_vector() {
            push_line(&mut out, 6, "double precision wv(0:n + 1)");
        }
        if self.uses_s0() {
            push_line(&mut out, 6, "s0 = 0.25d0");
        }
        self.render_init(&mut out, 6);
        let (kern_ind, in_time_loop) = if self.time_steps > 0 {
            push_line(&mut out, 6, &format!("do it = 1, {}", self.time_steps));
            (9, true)
        } else {
            (6, false)
        };
        for k in &self.body {
            self.render_kernel(k, &mut out, kern_ind);
        }
        if in_time_loop {
            if self.statement_in_time_loop {
                let stmt = ["continue", "m = it"][(self.seed % 2) as usize];
                push_line(&mut out, kern_ind, stmt);
            }
            push_line(&mut out, 6, "enddo");
        }
        if let Some(&f) = (self.plain_doubles().first()).filter(|_| self.reads_loop_vars_at_end) {
            let (a, subs) = (&self.arrays[f].name, self.subs_at(f, &[]));
            push_line(&mut out, 6, &format!("{a}({subs}) = {a}({subs}) + 0.25d0"));
        }
        push_line(&mut out, 6, "end");

        for (si, sub) in self.subs.iter().enumerate() {
            if !called.contains(&si) {
                continue; // unreferenced units are dropped at render time
            }
            out.push('\n');
            push_line(&mut out, 6, &format!("subroutine {}", sub.name));
            out.push_str(&decls);
            for k in &sub.body {
                self.render_kernel(k, &mut out, 6);
            }
            push_line(&mut out, 6, "end");
        }
        out
    }
}

fn push_line(out: &mut String, ind: usize, line: &str) {
    for _ in 0..ind {
        out.push(' ');
    }
    out.push_str(line);
    out.push('\n');
}

/// Adapt a geometry (list of per-dimension processor counts, as parsed
/// from a CLI spec like `2x3`) to `grid_rank` dimensions:
/// matching rank is used verbatim; otherwise the total processor count
/// is re-factored into `grid_rank` near-balanced factors.
pub fn adapt_geometry(geom: &[i64], grid_rank: usize) -> Vec<i64> {
    if geom.len() == grid_rank {
        return geom.to_vec();
    }
    let total: i64 = geom.iter().product();
    match grid_rank {
        1 => vec![total],
        2 => {
            // largest divisor ≤ √total gives the most balanced grid
            let mut a = 1;
            let mut d = 1;
            while d * d <= total {
                if total % d == 0 {
                    a = d;
                }
                d += 1;
            }
            vec![total / a, a]
        }
        _ => unreachable!("grid rank is 1 or 2"),
    }
}

/// `CompileOptions::bindings` entries for one adapted geometry.
pub fn grid_bindings(adapted: &[i64]) -> Vec<(String, i64)> {
    adapted
        .iter()
        .enumerate()
        .map(|(d, &p)| (format!("np{}", d + 1), p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, &GenOptions::default());
        let b = generate(42, &GenOptions::default());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn seeds_diversify() {
        let opts = GenOptions::default();
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..32 {
            distinct.insert(generate(seed, &opts).render());
        }
        assert!(
            distinct.len() > 24,
            "only {} distinct programs",
            distinct.len()
        );
    }

    #[test]
    fn geometry_adaptation() {
        assert_eq!(adapt_geometry(&[4], 1), vec![4]);
        assert_eq!(adapt_geometry(&[4], 2), vec![2, 2]);
        assert_eq!(adapt_geometry(&[6], 2), vec![3, 2]);
        assert_eq!(adapt_geometry(&[3], 2), vec![3, 1]);
        assert_eq!(adapt_geometry(&[2, 3], 1), vec![6]);
        assert_eq!(adapt_geometry(&[2, 3], 2), vec![2, 3]);
        assert_eq!(adapt_geometry(&[1], 2), vec![1, 1]);
    }

    #[test]
    fn read_of_loop_variables_is_one_opt_in_line() {
        let spec = ProgramSpec {
            time_steps: 2,
            ..generate(42, &GenOptions::default())
        };
        let plain = spec.render();
        let added_by = |probed: ProgramSpec| -> String {
            let probed = probed.render();
            dhpf_fortran::parse(&probed).expect("parses");
            let added: Vec<&str> = probed.lines().filter(|l| !plain.contains(l)).collect();
            assert_eq!(added.len(), 1, "{added:?}");
            added[0].trim().to_string()
        };
        let read = added_by(ProgramSpec {
            reads_loop_vars_at_end: true,
            ..spec.clone()
        });
        assert!(read.ends_with("+ 0.25d0"), "{read}");
        for (seed, stmt) in [(42, "continue"), (43, "m = it")] {
            let in_loop = added_by(ProgramSpec {
                seed,
                statement_in_time_loop: true,
                ..spec.clone()
            });
            assert_eq!(in_loop, stmt);
        }
        // the strip switch changes only the order of a 2-D sweep's two
        // loops and, by the seed, the range of the strip loop
        let opts = GenOptions::default();
        let spec = (0..).map(|s| generate(s, &opts)).find(|s| s.grid_rank == 2);
        let spec = spec.expect("a 2-D program");
        assert!(!spec.strip_outside_sweep, "generate leaves it off");
        let fields = spec.plain_doubles();
        let (arr, src) = (fields[0], fields[1]);
        let sweep = ProgramSpec {
            body: vec![Kernel::Sweep {
                arr,
                src,
                dim: 0,
                forward: true,
                coef20: 2,
            }],
            ..spec
        };
        for (seed, strip) in [(3, "1, n"), (4, "n, 1, -1"), (5, "1, n, 3")] {
            let plain = ProgramSpec {
                seed,
                ..sweep.clone()
            };
            let probed = ProgramSpec {
                strip_outside_sweep: true,
                ..plain.clone()
            };
            let (plain, probed) = (plain.render(), probed.render());
            dhpf_fortran::parse(&probed).expect("parses");
            let changed: Vec<(&str, &str)> = (plain.lines().zip(probed.lines()))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a.trim(), b.trim()))
                .collect();
            let strip = format!("do j = {strip}");
            let loops = [
                ("do i = 2, n", strip.as_str()),
                ("do j = 1, n", "do i = 2, n"),
            ];
            assert_eq!(changed, loops, "{probed}");
        }
    }

    #[test]
    fn rendered_programs_parse() {
        let opts = GenOptions::default();
        for seed in 0..64 {
            let spec = generate(seed, &opts);
            let src = spec.render();
            if let Err(d) = dhpf_fortran::parse(&src) {
                panic!("seed {seed} does not parse: {d:?}\n{src}");
            }
        }
    }
}

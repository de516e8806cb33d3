//! Reference collection: every array/scalar reference of a unit with its
//! affine subscript vector and read/write role.

use dhpf_fortran::ast::{ProgramUnit, RefId, StmtId};
use dhpf_fortran::subscript::affine;
use dhpf_fortran::symtab::{SymbolKind, SymbolTable};
use dhpf_iset::LinExpr;
use std::collections::BTreeMap;

/// One collected reference.
#[derive(Clone, Debug)]
pub struct RefInfo {
    pub id: RefId,
    pub stmt: StmtId,
    pub array: String,
    /// Affine subscripts (`None` for non-affine dimensions; empty for
    /// scalar references).
    pub subs: Vec<Option<LinExpr>>,
    pub is_write: bool,
    /// Rank-0 variable reference.
    pub is_scalar: bool,
}

/// All references of one unit, with indexes.
#[derive(Clone, Debug, Default)]
pub struct UnitRefs {
    pub refs: Vec<RefInfo>,
    by_id: BTreeMap<RefId, usize>,
    by_array: BTreeMap<String, Vec<usize>>,
    by_stmt: BTreeMap<StmtId, Vec<usize>>,
}

impl UnitRefs {
    /// Collect data references from a unit. Intrinsic/external *calls*
    /// (subscripted references resolved to functions) are skipped as data
    /// references, but their argument expressions are included.
    pub fn build(unit: &ProgramUnit, symtab: &SymbolTable) -> Self {
        let mut out = UnitRefs::default();
        unit.for_each_stmt(&mut |s| {
            // skip loop-header expressions for writes but record reads
            s.for_each_ref(&mut |r, is_write| {
                let kind = symtab.kind(&r.name);
                match kind {
                    Some(SymbolKind::Intrinsic) | Some(SymbolKind::External) => return,
                    Some(SymbolKind::Param(_)) => return,
                    _ => {}
                }
                let subs: Vec<Option<LinExpr>> =
                    r.subs.iter().map(|e| affine(e, &unit.decls)).collect();
                let info = RefInfo {
                    id: r.id,
                    stmt: s.id,
                    array: r.name.clone(),
                    is_scalar: r.subs.is_empty(),
                    subs,
                    is_write,
                };
                let idx = out.refs.len();
                out.by_id.insert(r.id, idx);
                out.by_array.entry(r.name.clone()).or_default().push(idx);
                out.by_stmt.entry(s.id).or_default().push(idx);
                out.refs.push(info);
            });
            // loop induction-variable writes are implicit; we do not model
            // them as references (classic dependence analysis treats the
            // induction variable specially).
            let _ = &s.kind;
        });
        out
    }

    pub fn by_id(&self, id: RefId) -> Option<&RefInfo> {
        self.by_id.get(&id).map(|&i| &self.refs[i])
    }

    /// References to a given array/variable name.
    pub fn of_array(&self, name: &str) -> Vec<&RefInfo> {
        self.by_array
            .get(name)
            .map(|v| v.iter().map(|&i| &self.refs[i]).collect())
            .unwrap_or_default()
    }

    /// References appearing in a given statement.
    pub fn of_stmt(&self, stmt: StmtId) -> Vec<&RefInfo> {
        self.by_stmt
            .get(&stmt)
            .map(|v| v.iter().map(|&i| &self.refs[i]).collect())
            .unwrap_or_default()
    }

    /// The written reference of a statement (assignment LHS), if any.
    pub fn write_of(&self, stmt: StmtId) -> Option<&RefInfo> {
        self.of_stmt(stmt).into_iter().find(|r| r.is_write)
    }
}

/// Convenience: build loops + refs + symbol table for a unit.
pub fn analyze_unit(
    program: &dhpf_fortran::Program,
    unit_name: &str,
) -> Option<(crate::loops::UnitLoops, UnitRefs, SymbolTable)> {
    let unit = program.unit(unit_name)?;
    let (tabs, diags) = dhpf_fortran::symtab::resolve(program);
    if diags
        .iter()
        .any(|d| matches!(d.severity, dhpf_fortran::span::Severity::Error))
    {
        return None;
    }
    let tab = tabs.get(unit_name)?.clone();
    Some((
        crate::loops::UnitLoops::build(unit),
        UnitRefs::build(unit, &tab),
        tab,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_fortran::parse;

    #[test]
    fn collects_reads_and_writes() {
        let p = parse(
            "
      subroutine s(a, b, n)
      double precision a(n), b(n)
      do i = 2, n
         a(i) = b(i - 1) * c + sqrt(b(i))
      enddo
      end
",
        )
        .unwrap();
        let (tabs, _) = dhpf_fortran::symtab::resolve(&p);
        let refs = UnitRefs::build(&p.units[0], &tabs["s"]);
        let a_refs = refs.of_array("a");
        assert_eq!(a_refs.len(), 1);
        assert!(a_refs[0].is_write);
        assert_eq!(a_refs[0].subs[0].as_ref().unwrap().to_string(), "i");
        let b_refs = refs.of_array("b");
        assert_eq!(b_refs.len(), 2);
        assert!(b_refs.iter().all(|r| !r.is_write));
        // scalar c collected; sqrt not collected
        assert_eq!(refs.of_array("c").len(), 1);
        assert!(refs.of_array("sqrt").is_empty());
    }

    #[test]
    fn write_of_statement() {
        let p = parse(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = 1, n
         a(i) = 1.0
      enddo
      end
",
        )
        .unwrap();
        let (tabs, _) = dhpf_fortran::symtab::resolve(&p);
        let refs = UnitRefs::build(&p.units[0], &tabs["s"]);
        let mut assign = None;
        p.units[0].for_each_stmt(&mut |s| {
            if matches!(s.kind, dhpf_fortran::StmtKind::Assign { .. }) {
                assign = Some(s.id);
            }
        });
        let w = refs.write_of(assign.unwrap()).unwrap();
        assert_eq!(w.array, "a");
    }

    #[test]
    fn loop_bound_reads_collected() {
        let p = parse(
            "
      subroutine s(a, m, n)
      double precision a(n)
      do i = m, n
         a(i) = 0.0
      enddo
      end
",
        )
        .unwrap();
        let (tabs, _) = dhpf_fortran::symtab::resolve(&p);
        let refs = UnitRefs::build(&p.units[0], &tabs["s"]);
        assert_eq!(refs.of_array("m").len(), 1);
        assert!(!refs.of_array("m")[0].is_write);
    }
}

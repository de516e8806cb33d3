//! Use→def chains inside loop bodies.
//!
//! For every read reference to a variable inside a loop, find the
//! *lexically last* write to that variable that precedes it inside the
//! loop (the paper's §7 uses exactly this: "we use dependence information
//! to compute the last write reference that produces values consumed by
//! that read … we conservatively only consider the last write"). The
//! same chains drive the use→def CP translation of §4.

use crate::loops::UnitLoops;
use crate::refs::{RefInfo, UnitRefs};
use dhpf_fortran::ast::{RefId, StmtId};
use std::collections::BTreeMap;

/// Use→def result for one loop.
#[derive(Clone, Debug, Default)]
pub struct UseDef {
    /// For each read ref: the lexically-last preceding write ref to the
    /// same variable inside the loop (if any).
    pub last_write_before: BTreeMap<RefId, RefId>,
    /// For each variable written in the loop: all reads of it inside the
    /// loop that have *some* preceding write (used by CP propagation —
    /// definition gets the union of its uses' CPs).
    pub uses_of_var: BTreeMap<String, Vec<RefId>>,
}

/// Compute use→def chains among the statements of `loop_id`.
pub fn build(loop_id: StmtId, loops: &UnitLoops, refs: &UnitRefs) -> UseDef {
    let mut out = UseDef::default();
    let body = loops.stmts_in(loop_id);
    // gather writes and reads in lexical order
    let mut writes: Vec<&RefInfo> = Vec::new();
    let mut reads: Vec<&RefInfo> = Vec::new();
    for sid in &body {
        for r in refs.of_stmt(*sid) {
            if r.is_scalar && loops.is_loop_var(r.stmt, &r.array) {
                continue; // induction variable
            }
            if r.is_write {
                writes.push(r);
            } else {
                reads.push(r);
            }
        }
    }
    for read in &reads {
        // last write to the same variable lexically before the read;
        // a write in the same statement does not precede its own RHS.
        let mut best: Option<&RefInfo> = None;
        for w in &writes {
            if w.array != read.array || !loops.before(w.stmt, read.stmt) {
                continue;
            }
            match best {
                Some(b) if loops.before(w.stmt, b.stmt) => {}
                _ => best = Some(w),
            }
        }
        if let Some(w) = best {
            out.last_write_before.insert(read.id, w.id);
            out.uses_of_var
                .entry(read.array.clone())
                .or_default()
                .push(read.id);
        }
    }
    out
}

/// All uses (reads) of `var` inside `loop_id` regardless of whether a
/// preceding write exists. Useful for LOCALIZE (§4.2), where uses later
/// in the loop than the definition statement are the interesting ones.
pub fn reads_of_var<'r>(
    loop_id: StmtId,
    var: &str,
    loops: &UnitLoops,
    refs: &'r UnitRefs,
) -> Vec<&'r RefInfo> {
    loops
        .stmts_in(loop_id)
        .iter()
        .flat_map(|sid| refs.of_stmt(*sid))
        .filter(|r| r.array == var && !r.is_write)
        .collect()
}

/// All writes of `var` inside `loop_id`.
pub fn writes_of_var<'r>(
    loop_id: StmtId,
    var: &str,
    loops: &UnitLoops,
    refs: &'r UnitRefs,
) -> Vec<&'r RefInfo> {
    loops
        .stmts_in(loop_id)
        .iter()
        .flat_map(|sid| refs.of_stmt(*sid))
        .filter(|r| r.array == var && r.is_write)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::analyze_unit;
    use dhpf_fortran::parse;

    fn setup(src: &str) -> (UnitLoops, UnitRefs, StmtId) {
        let p = parse(src).expect("parse");
        let (loops, refs, _) = analyze_unit(&p, "s").expect("analyze");
        let outer = *loops
            .loops
            .iter()
            .find(|(_, info)| info.depth == 0)
            .map(|(id, _)| id)
            .unwrap();
        (loops, refs, outer)
    }

    #[test]
    fn last_write_wins() {
        let (loops, refs, outer) = setup(
            "
      subroutine s(a, b, n)
      double precision a(n), b(n), t(n)
      do i = 1, n
         t(i) = a(i)
         t(i) = t(i) + 1.0
         b(i) = t(i)
      enddo
      end
",
        );
        let ud = build(outer, &loops, &refs);
        // the read of t in `b(i) = t(i)` chains to the SECOND write
        let t_reads = reads_of_var(outer, "t", &loops, &refs);
        let last_read = t_reads.iter().max_by_key(|r| loops.order[&r.stmt]).unwrap();
        let w = ud.last_write_before[&last_read.id];
        let winfo = refs.by_id(w).unwrap();
        let t_writes = writes_of_var(outer, "t", &loops, &refs);
        let second_write = t_writes
            .iter()
            .max_by_key(|r| loops.order[&r.stmt])
            .unwrap();
        assert_eq!(winfo.id, second_write.id);
    }

    #[test]
    fn same_statement_write_does_not_feed_its_own_read() {
        let (loops, refs, outer) = setup(
            "
      subroutine s(a, n)
      double precision a(n), t(n)
      do i = 1, n
         t(i) = t(i) + a(i)
      enddo
      end
",
        );
        let ud = build(outer, &loops, &refs);
        let t_reads = reads_of_var(outer, "t", &loops, &refs);
        assert_eq!(t_reads.len(), 1);
        assert!(!ud.last_write_before.contains_key(&t_reads[0].id));
    }

    #[test]
    fn uses_of_var_collects_covered_reads() {
        let (loops, refs, outer) = setup(
            "
      subroutine s(lhs, rhs, n)
      double precision lhs(n, n), rhs(n, n), cv(n)
      do j = 1, n
         do i = 1, n
            cv(i) = rhs(i, j)
         enddo
         do i = 2, n - 1
            lhs(i, j) = cv(i - 1) + cv(i + 1)
         enddo
      enddo
      end
",
        );
        let ud = build(outer, &loops, &refs);
        assert_eq!(ud.uses_of_var["cv"].len(), 2);
    }

    #[test]
    fn induction_vars_excluded() {
        let (loops, refs, outer) = setup(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = 1, n
         a(i) = i * 2.0
      enddo
      end
",
        );
        let ud = build(outer, &loops, &refs);
        assert!(!ud.uses_of_var.contains_key("i"));
    }
}

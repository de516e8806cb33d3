//! Loop-nest structure of a program unit.

use dhpf_fortran::ast::{LoopDirective, ProgramUnit, Stmt, StmtId, StmtKind};
use dhpf_fortran::subscript::affine;
use dhpf_iset::LinExpr;
use std::collections::BTreeMap;

/// Information about one `do` loop.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    pub id: StmtId,
    pub var: String,
    /// Affine lower bound (None if non-affine).
    pub lo: Option<LinExpr>,
    /// Affine upper bound.
    pub hi: Option<LinExpr>,
    /// Constant step (None if absent = 1, or non-constant).
    pub step: i64,
    pub dir: LoopDirective,
    /// Nesting depth (0 = outermost in the unit).
    pub depth: usize,
}

/// Loop structure for one unit.
#[derive(Clone, Debug, Default)]
pub struct UnitLoops {
    /// Every loop by its statement id.
    pub loops: BTreeMap<StmtId, LoopInfo>,
    /// For every statement: the enclosing loop ids, outermost first.
    pub nest_of: BTreeMap<StmtId, Vec<StmtId>>,
    /// Lexical (pre-order) position of every statement.
    pub order: BTreeMap<StmtId, usize>,
    /// Direct child statements of each loop (ids, in order).
    pub loop_body: BTreeMap<StmtId, Vec<StmtId>>,
    /// Every statement in lexical (pre-order) position.
    preorder: Vec<StmtId>,
    /// For every loop: the pre-order position just past its last
    /// descendant, so its body is `preorder[order[loop] + 1..end[loop]]`.
    end: BTreeMap<StmtId, usize>,
}

impl UnitLoops {
    /// Build from a parsed unit.
    pub fn build(unit: &ProgramUnit) -> Self {
        let mut out = UnitLoops::default();
        let mut stack: Vec<StmtId> = Vec::new();
        for s in &unit.body {
            visit(s, unit, &mut out, &mut stack);
        }
        out
    }

    /// The loop variables enclosing a statement, outermost first.
    #[cfg(test)]
    pub fn loop_vars(&self, stmt: StmtId) -> Vec<&str> {
        self.nest_of
            .get(&stmt)
            .map(|ids| ids.iter().map(|id| self.loops[id].var.as_str()).collect())
            .unwrap_or_default()
    }

    /// Is `name` the variable of a loop enclosing `stmt`?
    pub fn is_loop_var(&self, stmt: StmtId, name: &str) -> bool {
        (self.nest_of.get(&stmt)).is_some_and(|ids| ids.iter().any(|id| self.loops[id].var == name))
    }

    /// The common enclosing loops of two statements, outermost first.
    pub fn common_loops(&self, a: StmtId, b: StmtId) -> Vec<StmtId> {
        let na = self.nest_of.get(&a).cloned().unwrap_or_default();
        let nb = self.nest_of.get(&b).cloned().unwrap_or_default();
        na.iter()
            .zip(nb.iter())
            .take_while(|(x, y)| x == y)
            .map(|(x, _)| *x)
            .collect()
    }

    /// Is statement `a` lexically before `b`?
    pub fn before(&self, a: StmtId, b: StmtId) -> bool {
        self.order.get(&a) < self.order.get(&b)
    }

    /// The single-child loop chain from `loop_id` inward: level 0 is the
    /// loop itself, and each next level is the only statement of the
    /// previous one's body, while that statement is a loop. Empty when
    /// `loop_id` is not a loop.
    pub fn chain(&self, loop_id: StmtId) -> Vec<StmtId> {
        let mut chain = Vec::new();
        let mut next = Some(loop_id).filter(|id| self.loops.contains_key(id));
        while let Some(id) = next {
            chain.push(id);
            next = match self.loop_body[&id][..] {
                [only] if self.loops.contains_key(&only) => Some(only),
                _ => None,
            };
        }
        chain
    }

    /// All statements (ids) strictly inside a loop (any depth, `IF` arms
    /// included), in lexical order. Empty when `loop_id` is not a loop.
    pub fn stmts_in(&self, loop_id: StmtId) -> Vec<StmtId> {
        match self.end.get(&loop_id) {
            Some(&end) => self.preorder[self.order[&loop_id] + 1..end].to_vec(),
            None => Vec::new(),
        }
    }
}

fn visit(s: &Stmt, unit: &ProgramUnit, out: &mut UnitLoops, stack: &mut Vec<StmtId>) {
    out.order.insert(s.id, out.preorder.len());
    out.preorder.push(s.id);
    out.nest_of.insert(s.id, stack.clone());
    match &s.kind {
        StmtKind::Do {
            var,
            lo,
            hi,
            step,
            body,
            dir,
        } => {
            let step_val = match step {
                None => 1,
                Some(e) => affine(e, &unit.decls)
                    .filter(|l| l.is_constant())
                    .map(|l| l.constant())
                    .unwrap_or(1),
            };
            out.loops.insert(
                s.id,
                LoopInfo {
                    id: s.id,
                    var: var.clone(),
                    lo: affine(lo, &unit.decls),
                    hi: affine(hi, &unit.decls),
                    step: step_val,
                    dir: dir.clone(),
                    depth: stack.len(),
                },
            );
            out.loop_body
                .insert(s.id, body.iter().map(|b| b.id).collect());
            stack.push(s.id);
            for b in body {
                visit(b, unit, out, stack);
            }
            stack.pop();
            out.end.insert(s.id, out.preorder.len());
        }
        StmtKind::If { arms } => {
            for (_, body) in arms {
                for b in body {
                    visit(b, unit, out, stack);
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_fortran::parse;

    fn build(src: &str) -> (dhpf_fortran::Program, UnitLoops) {
        let p = parse(src).expect("parse");
        let l = UnitLoops::build(&p.units[0]);
        (p, l)
    }

    const NEST: &str = "
      subroutine s(a, n)
      double precision a(n, n)
      do k = 1, n
         do j = 2, n - 1
            a(j, k) = a(j - 1, k) + 1.0
         enddo
         a(1, k) = 0.0
      enddo
      end
";

    #[test]
    fn loop_structure() {
        let (p, l) = build(NEST);
        assert_eq!(l.loops.len(), 2);
        let mut loop_ids: Vec<StmtId> = l.loops.keys().cloned().collect();
        loop_ids.sort_by_key(|id| l.order[id]);
        let (k_loop, j_loop) = (loop_ids[0], loop_ids[1]);
        assert_eq!(l.loops[&k_loop].var, "k");
        assert_eq!(l.loops[&k_loop].depth, 0);
        assert_eq!(l.loops[&j_loop].var, "j");
        assert_eq!(l.loops[&j_loop].depth, 1);
        assert_eq!(l.loops[&j_loop].lo.as_ref().unwrap().to_string(), "2");
        assert_eq!(l.loops[&j_loop].hi.as_ref().unwrap().to_string(), "n - 1");

        // body statements
        let mut assign_ids = vec![];
        p.units[0].for_each_stmt(&mut |s| {
            if matches!(s.kind, dhpf_fortran::StmtKind::Assign { .. }) {
                assign_ids.push(s.id);
            }
        });
        assert_eq!(l.loop_vars(assign_ids[0]), vec!["k", "j"]);
        assert_eq!(l.loop_vars(assign_ids[1]), vec!["k"]);
        assert_eq!(l.common_loops(assign_ids[0], assign_ids[1]), vec![k_loop]);
        assert!(l.before(assign_ids[0], assign_ids[1]));
        // the k loop's body is two statements: the chain stops at it
        assert_eq!(l.chain(k_loop), vec![k_loop]);
        assert_eq!(l.chain(j_loop), vec![j_loop]);
        assert!(l.chain(assign_ids[0]).is_empty());
    }

    #[test]
    fn stmts_in_collects_descendants() {
        let (_, l) = build(NEST);
        let mut loop_ids: Vec<StmtId> = l.loops.keys().cloned().collect();
        loop_ids.sort_by_key(|id| l.order[id]);
        let inner_count = l.stmts_in(loop_ids[0]).len();
        assert_eq!(inner_count, 3); // j loop + 2 assigns
        assert_eq!(l.stmts_in(loop_ids[1]).len(), 1);
    }

    #[test]
    fn chain_follows_single_child_loops() {
        let (_, l) = build(
            "
      subroutine s(a, n)
      double precision a(n, n)
      do k = 1, n
         do j = 1, n
            a(j, k) = 1.0
         enddo
      enddo
      end
",
        );
        let mut ids: Vec<StmtId> = l.loops.keys().cloned().collect();
        ids.sort_by_key(|id| l.order[id]);
        assert_eq!(l.chain(ids[0]), ids);
        assert_eq!(l.chain(ids[1]), ids[1..]);
    }

    #[test]
    fn if_bodies_share_enclosing_nest() {
        let (p, l) = build(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = 1, n
         if (i .gt. 1) then
            a(i) = 1.0
         endif
      enddo
      end
",
        );
        let mut assign = None;
        p.units[0].for_each_stmt(&mut |s| {
            if matches!(s.kind, dhpf_fortran::StmtKind::Assign { .. }) {
                assign = Some(s.id);
            }
        });
        assert_eq!(l.loop_vars(assign.unwrap()), vec!["i"]);
        // the loop's body holds the IF and, inside its arm, the assignment
        let i_loop = *l.loops.keys().next().unwrap();
        assert_eq!(l.stmts_in(i_loop).len(), 2);
        assert_eq!(l.stmts_in(i_loop)[1], assign.unwrap());
        assert!(l.stmts_in(assign.unwrap()).is_empty());
    }

    #[test]
    fn step_extraction() {
        let (_, l) = build(
            "
      subroutine s(a, n)
      double precision a(n)
      do i = n, 1, -1
         a(i) = 1.0
      enddo
      end
",
        );
        let info = l.loops.values().next().unwrap();
        assert_eq!(info.step, -1);
    }
}

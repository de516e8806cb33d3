//! Call graph over program units and its bottom-up traversal order
//! (the driver for interprocedural CP selection, §6 of the paper).

use dhpf_fortran::ast::{Program, StmtId, StmtKind};
use std::collections::{BTreeMap, BTreeSet};

/// One call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    pub caller: String,
    pub callee: String,
    pub stmt: StmtId,
}

/// The call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// callees per caller (deduplicated, sorted).
    pub calls: BTreeMap<String, BTreeSet<String>>,
    /// every call site in program order.
    pub sites: Vec<CallSite>,
    units: Vec<String>,
}

impl CallGraph {
    /// Build from a program. Calls to intrinsics or unknown names are
    /// ignored (the symbol checker reports the latter separately).
    pub fn build(program: &Program) -> Self {
        let unit_names: BTreeSet<String> = program.units.iter().map(|u| u.name.clone()).collect();
        let mut g = CallGraph {
            units: program.units.iter().map(|u| u.name.clone()).collect(),
            ..Default::default()
        };
        for unit in &program.units {
            g.calls.entry(unit.name.clone()).or_default();
            unit.for_each_stmt(&mut |s| {
                if let StmtKind::Call { name, .. } = &s.kind {
                    if unit_names.contains(name) {
                        g.calls.get_mut(&unit.name).unwrap().insert(name.clone());
                        g.sites.push(CallSite {
                            caller: unit.name.clone(),
                            callee: name.clone(),
                            stmt: s.id,
                        });
                    }
                }
            });
        }
        g
    }

    /// Units with no calls to other units.
    pub fn leaves(&self) -> Vec<&str> {
        self.units
            .iter()
            .filter(|u| self.calls.get(*u).map(|c| c.is_empty()).unwrap_or(true))
            .map(|s| s.as_str())
            .collect()
    }

    /// Bottom-up (callees before callers) topological order. Returns
    /// `None` if the graph has a cycle (recursion — unsupported, as in
    /// Fortran 77).
    pub fn bottom_up(&self) -> Option<Vec<&str>> {
        let mut order: Vec<&str> = Vec::new();
        let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 0 new, 1 open, 2 done
        fn visit<'a>(
            u: &'a str,
            g: &'a CallGraph,
            state: &mut BTreeMap<&'a str, u8>,
            order: &mut Vec<&'a str>,
        ) -> bool {
            match state.get(u) {
                Some(1) => return false, // cycle
                Some(2) => return true,
                _ => {}
            }
            state.insert(u, 1);
            if let Some(callees) = g.calls.get(u) {
                for c in callees {
                    if !visit(c.as_str(), g, state, order) {
                        return false;
                    }
                }
            }
            state.insert(u, 2);
            order.push(u);
            true
        }
        for u in &self.units {
            if !visit(u.as_str(), self, &mut state, &mut order) {
                return None;
            }
        }
        Some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_fortran::parse;

    const SRC: &str = "
      program main
      call solve(1)
      call solve(2)
      call rhs(3)
      end

      subroutine solve(d)
      call matmul_sub(d)
      call binv(d)
      end

      subroutine rhs(d)
      x = d
      end

      subroutine matmul_sub(d)
      x = d
      end

      subroutine binv(d)
      x = d
      end
";

    #[test]
    fn builds_edges_and_sites() {
        let p = parse(SRC).unwrap();
        let g = CallGraph::build(&p);
        assert!(g.calls["main"].contains("solve"));
        assert!(g.calls["solve"].contains("binv"));
        assert_eq!(g.sites.len(), 5);
        assert_eq!(g.sites.iter().filter(|s| s.callee == "solve").count(), 2);
    }

    #[test]
    fn leaves_and_bottom_up() {
        let p = parse(SRC).unwrap();
        let g = CallGraph::build(&p);
        let leaves: BTreeSet<&str> = g.leaves().into_iter().collect();
        assert_eq!(leaves, BTreeSet::from(["rhs", "matmul_sub", "binv"]));
        let order = g.bottom_up().expect("acyclic");
        let pos = |n: &str| order.iter().position(|u| *u == n).unwrap();
        assert!(pos("matmul_sub") < pos("solve"));
        assert!(pos("binv") < pos("solve"));
        assert!(pos("solve") < pos("main"));
    }

    #[test]
    fn recursion_detected() {
        let p = parse(
            "
      subroutine a(x)
      call b(x)
      end
      subroutine b(x)
      call a(x)
      end
",
        )
        .unwrap();
        let g = CallGraph::build(&p);
        assert!(g.bottom_up().is_none());
    }

    #[test]
    fn intrinsic_calls_ignored() {
        let p = parse(
            "
      program main
      x = sqrt(4.0)
      end
",
        )
        .unwrap();
        let g = CallGraph::build(&p);
        assert!(g.calls["main"].is_empty());
    }
}

//! Communication-sensitive loop distribution — §5 of the paper.
//!
//! Two cooperating pieces:
//!
//! 1. **CP-choice grouping** (union-find): statements connected by
//!    loop-independent dependences are grouped and their candidate-CP
//!    sets restricted to the common choices, so the pair always touches
//!    the same data on the same processor (the dependence is
//!    *localized*). When two groups share no common choice, the end
//!    statements are *marked* for distribution.
//! 2. **Selective distribution**: the loop's dependence graph is
//!    condensed into SCCs (Tarjan); only SCCs containing marked pairs
//!    are split apart; a greedy fusion pass keeps everything else in as
//!    few loops as possible, preserving the original loop structure and
//!    its cache behaviour.

use crate::cp::Cp;
use crate::driver::IdAlloc;
use crate::select::Candidate;
use dhpf_depend::dep::Dependence;
use dhpf_depend::loops::UnitLoops;
use dhpf_fortran::ast::{Stmt, StmtId, StmtKind};
use dhpf_obs::{self as obs, Decision, DecisionKind};
use std::collections::{BTreeMap, BTreeSet};

/// A group of statements constrained to use a common CP choice.
#[derive(Clone, Debug)]
pub struct Group {
    pub stmts: Vec<StmtId>,
    /// The partition keys still allowed for this group (intersection of
    /// the members' candidate keys).
    pub keys: Vec<String>,
}

/// Result of the grouping pass.
#[derive(Clone, Debug, Default)]
pub struct GroupingResult {
    pub groups: Vec<Group>,
    /// Statement pairs that could not be localized and must land in
    /// different loops.
    pub marked: Vec<(StmtId, StmtId)>,
}

/// Union-find with path compression.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

/// Group the given statements by loop-independent dependences,
/// restricting candidate keys (§5, first phase).
///
/// `candidates` supplies each statement's CP choices (from
/// [`crate::select::candidates`]).
pub fn group_statements(
    stmts: &[StmtId],
    candidates: &BTreeMap<StmtId, Vec<Candidate>>,
    deps: &[Dependence],
) -> GroupingResult {
    let index: BTreeMap<StmtId, usize> = stmts.iter().enumerate().map(|(i, s)| (*s, i)).collect();
    let mut dsu = Dsu::new(stmts.len());
    let mut keys: Vec<BTreeSet<String>> = stmts
        .iter()
        .map(|s| {
            candidates
                .get(s)
                .map(|c| c.iter().map(|x| x.key.clone()).collect())
                .unwrap_or_default()
        })
        .collect();
    let mut marked: Vec<(StmtId, StmtId)> = Vec::new();

    for d in deps {
        if !d.is_loop_independent() || d.src_stmt == d.dst_stmt {
            continue;
        }
        let (Some(&a), Some(&b)) = (index.get(&d.src_stmt), index.get(&d.dst_stmt)) else {
            continue;
        };
        let (ra, rb) = (dsu.find(a), dsu.find(b));
        if ra == rb {
            continue;
        }
        // scalar/replicated statements (wildcard or empty key sets)
        // impose no partition constraint: union without restricting
        let wild = |k: &BTreeSet<String>| k.is_empty() || k.contains("*");
        if wild(&keys[ra]) || wild(&keys[rb]) {
            let keep = if wild(&keys[ra]) {
                keys[rb].clone()
            } else {
                keys[ra].clone()
            };
            dsu.union(ra, rb);
            let r = dsu.find(ra);
            keys[r] = keep;
            continue;
        }
        let common: BTreeSet<String> = keys[ra].intersection(&keys[rb]).cloned().collect();
        if common.is_empty() {
            if !marked.contains(&(d.src_stmt, d.dst_stmt))
                && !marked.contains(&(d.dst_stmt, d.src_stmt))
            {
                marked.push((d.src_stmt, d.dst_stmt));
            }
        } else {
            dsu.union(ra, rb);
            let r = dsu.find(ra);
            keys[r] = common;
        }
    }

    // materialize groups
    let mut by_root: BTreeMap<usize, Vec<StmtId>> = BTreeMap::new();
    for (i, s) in stmts.iter().enumerate() {
        by_root.entry(dsu.find(i)).or_default().push(*s);
    }
    let groups = by_root
        .into_iter()
        .map(|(root, members)| Group {
            stmts: members,
            keys: keys[root].iter().cloned().collect(),
        })
        .collect();
    GroupingResult { groups, marked }
}

/// Tarjan SCC over an adjacency list; returns SCCs in **reverse
/// topological order** (standard Tarjan output: callees first).
fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct St<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        counter: usize,
        out: Vec<Vec<usize>>,
    }
    fn strongconnect(v: usize, st: &mut St) {
        st.index[v] = Some(st.counter);
        st.low[v] = st.counter;
        st.counter += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in &st.adj[v] {
            if st.index[w].is_none() {
                strongconnect(w, st);
                st.low[v] = st.low[v].min(st.low[w]);
            } else if st.on_stack[w] {
                st.low[v] = st.low[v].min(st.index[w].unwrap());
            }
        }
        if st.low[v] == st.index[v].unwrap() {
            let mut scc = Vec::new();
            loop {
                let w = st.stack.pop().unwrap();
                st.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            st.out.push(scc);
        }
    }
    let mut st = St {
        adj,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        counter: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(v, &mut st);
        }
    }
    st.out
}

/// Partition the *direct children* of `loop_id` into new loops so that
/// every marked pair lands in different loops, distributing as little as
/// possible (§5, second phase). Returns the ordered partition (each
/// inner `Vec` is one new loop's body, identified by direct-child
/// statement ids). A single partition means no distribution is needed.
pub fn partition_loop(
    loop_id: StmtId,
    loops: &UnitLoops,
    deps: &[Dependence],
    marked: &[(StmtId, StmtId)],
) -> Vec<Vec<StmtId>> {
    let children: Vec<StmtId> = loops.loop_body.get(&loop_id).cloned().unwrap_or_default();
    if children.len() <= 1 {
        return vec![children];
    }
    // map any statement inside the loop to its direct child by pre-order
    // position: child C covers [order(C), order(next child))
    let child_of = |s: StmtId| -> Option<usize> {
        let o = *loops.order.get(&s)?;
        let mut cur = None;
        for (i, c) in children.iter().enumerate() {
            if loops.order[c] <= o {
                cur = Some(i);
            } else {
                break;
            }
        }
        cur
    };

    // dependence edges between distinct children (execution order)
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); children.len()];
    for d in deps {
        let (Some(a), Some(b)) = (child_of(d.src_stmt), child_of(d.dst_stmt)) else {
            continue;
        };
        if a != b && !adj[a].contains(&b) {
            adj[a].push(b);
        }
    }
    let mut sccs = tarjan(children.len(), &adj);
    sccs.reverse(); // topological order
    for scc in &mut sccs {
        scc.sort_by_key(|&c| loops.order[&children[c]]);
    }

    // which SCC pairs must be separated?
    let scc_of: BTreeMap<usize, usize> = sccs
        .iter()
        .enumerate()
        .flat_map(|(si, scc)| scc.iter().map(move |&c| (c, si)))
        .collect();
    let mut conflicts: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (a, b) in marked {
        let (Some(ca), Some(cb)) = (child_of(*a), child_of(*b)) else {
            continue;
        };
        let (sa, sb) = (scc_of[&ca], scc_of[&cb]);
        if sa != sb {
            conflicts.insert((sa.min(sb), sa.max(sb)));
        }
        // a marked pair inside one SCC cannot be separated at this level;
        // the driver retries one loop deeper (deepest-first traversal)
    }

    // greedy contiguous fusion in topological order
    let mut partitions: Vec<Vec<usize>> = Vec::new(); // of SCC indices
    let mut current: Vec<usize> = Vec::new();
    for si in 0..sccs.len() {
        let clash = current
            .iter()
            .any(|&prev| conflicts.contains(&(prev.min(si), prev.max(si))));
        if clash && !current.is_empty() {
            partitions.push(std::mem::take(&mut current));
        }
        current.push(si);
    }
    if !current.is_empty() {
        partitions.push(current);
    }

    partitions
        .into_iter()
        .map(|sccs_in_part| {
            let mut stmts: Vec<StmtId> = sccs_in_part
                .into_iter()
                .flat_map(|si| sccs[si].iter().map(|&c| children[c]))
                .collect();
            stmts.sort_by_key(|s| loops.order[s]);
            stmts
        })
        .collect()
}

/// The §5 rewrite over a unit's statement list: distribute, at the
/// deepest loop of `nest` containing the first marked pair, as little as
/// separates the marked pairs. Returns `true` if the AST changed.
pub(crate) fn distribute_nest(
    body: &mut Vec<Stmt>,
    nest: StmtId,
    loops: &UnitLoops,
    deps: &[Dependence],
    marked: &[(StmtId, StmtId)],
    ids: &mut IdAlloc,
) -> bool {
    let Some((a, b)) = marked.first() else {
        return false;
    };
    let common = loops.common_loops(*a, *b);
    let Some(&target) = common.last() else {
        return false;
    };
    if !(target == nest || loops.stmts_in(nest).contains(&target)) {
        return false;
    }
    let parts = partition_loop(target, loops, deps, marked);
    parts.len() > 1 && split_loop(body, target, &parts, ids)
}

/// Replace loop `target`, wherever it sits under `body`, by one copy of
/// its header per part.
fn split_loop(
    body: &mut Vec<Stmt>,
    target: StmtId,
    parts: &[Vec<StmtId>],
    ids: &mut IdAlloc,
) -> bool {
    for i in 0..body.len() {
        if body[i].id == target {
            let StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body: inner,
                dir,
            } = body[i].kind.clone()
            else {
                return false;
            };
            obs::decide(|| {
                Decision::new(DecisionKind::LoopDistributed {
                    loop_var: var.clone(),
                    parts: parts.len(),
                })
                .line(body[i].span.line)
            });
            let mut replacements = Vec::new();
            for part in parts {
                let part_body: Vec<Stmt> = inner
                    .iter()
                    .filter(|s| part.contains(&s.id))
                    .cloned()
                    .collect();
                if part_body.is_empty() {
                    continue;
                }
                replacements.push(Stmt {
                    id: ids.stmt(),
                    span: body[i].span,
                    label: None,
                    kind: StmtKind::Do {
                        var: var.clone(),
                        lo: lo.clone(),
                        hi: hi.clone(),
                        step: step.clone(),
                        body: part_body,
                        dir: dir.clone(),
                    },
                });
            }
            body.splice(i..=i, replacements);
            return true;
        }
        let inner: Vec<&mut Vec<Stmt>> = match &mut body[i].kind {
            StmtKind::Do { body: inner, .. } => vec![inner],
            StmtKind::If { arms } => arms.iter_mut().map(|(_, inner)| inner).collect(),
            _ => Vec::new(),
        };
        if inner.into_iter().any(|b| split_loop(b, target, parts, ids)) {
            return true;
        }
    }
    false
}

/// Choose CPs group-wise: every statement in a group takes its candidate
/// matching the group's first allowed key (candidate order puts the
/// write's owner-computes key first, so ties favour owner-computes).
/// Statements with no surviving key fall back to their first candidate.
pub fn assign_group_cps(
    grouping: &GroupingResult,
    candidates: &BTreeMap<StmtId, Vec<Candidate>>,
) -> BTreeMap<StmtId, Cp> {
    let mut out = BTreeMap::new();
    for g in &grouping.groups {
        for s in &g.stmts {
            let Some(cands) = candidates.get(s) else {
                continue;
            };
            let chosen = cands
                .iter()
                .find(|c| g.keys.contains(&c.key))
                .or_else(|| cands.first());
            if let Some(c) = chosen {
                out.insert(*s, c.cp.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::{resolve, DistEnv};
    use crate::select::candidates;
    use dhpf_depend::dep::analyze_loop_deps;
    use dhpf_depend::refs::analyze_unit;
    use dhpf_depend::refs::UnitRefs;
    use dhpf_fortran::parse;

    /// A reduction of the paper's Figure 5.1 (y_solve of SP): statements
    /// connected by loop-independent dependences on lhs/rhs; all can be
    /// localized to a common CP.
    const Y_SOLVE_OK: &str = "
      subroutine s(lhs, rhs)
      parameter (n = 16)
      integer i, j, k
      double precision lhs(n, n, n, 8), rhs(n, n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute (*, block, block, *) onto p :: lhs
!hpf$ distribute (*, block, block) onto p :: rhs
      do k = 1, n
         do j = 1, n - 2
            do i = 1, n
               s1 = lhs(i, j, k, 4)
               lhs(i, j, k, 5) = lhs(i, j, k, 5) * s1
               lhs(i, j + 1, k, 6) = lhs(i, j, k, 5) + 1.0
               rhs(i, j, k) = rhs(i, j, k) * s1
            enddo
         enddo
      enddo
      end
";

    fn setup(
        src: &str,
    ) -> (
        UnitLoops,
        UnitRefs,
        DistEnv,
        Vec<Dependence>,
        Vec<StmtId>,
        StmtId,
    ) {
        let p = parse(src).expect("parse");
        let name = p.units[0].name.clone();
        let (loops, refs, _) = analyze_unit(&p, &name).expect("analyze");
        let env = resolve(&p.units[0], &Default::default()).expect("resolve");
        let outer = loops
            .loops
            .iter()
            .filter(|(_, i)| i.depth == 0)
            .map(|(id, _)| *id)
            .min_by_key(|id| loops.order[id])
            .unwrap();
        let deps = analyze_loop_deps(outer, &loops, &refs);
        let stmts = crate::select::assignments_in(outer, &loops, &refs);
        (loops, refs, env, deps, stmts, outer)
    }

    fn cands_for(
        stmts: &[StmtId],
        refs: &UnitRefs,
        env: &DistEnv,
    ) -> BTreeMap<StmtId, Vec<Candidate>> {
        stmts
            .iter()
            .map(|s| (*s, candidates(*s, refs, env)))
            .collect()
    }

    #[test]
    fn figure_5_1_all_statements_grouped() {
        let (_loops, refs, env, deps, stmts, _outer) = setup(Y_SOLVE_OK);
        let cands = cands_for(&stmts, &refs, &env);
        let g = group_statements(&stmts, &cands, &deps);
        assert!(
            g.marked.is_empty(),
            "no distribution needed: {:?}",
            g.marked
        );
        // the three lhs/rhs statements end up in one group (the scalar s1
        // statement has no partitioned candidates; its key set is empty
        // so it stays alone)
        let big = g.groups.iter().map(|gr| gr.stmts.len()).max().unwrap();
        assert!(big >= 3, "groups: {:?}", g.groups);
    }

    /// Count localized loop-independent dependences under a CP assignment:
    /// `(localized, total)`.
    fn localized_count(
        deps: &[Dependence],
        cps: &BTreeMap<StmtId, Cp>,
        env: &crate::distrib::DistEnv,
    ) -> (usize, usize) {
        let mut localized = 0;
        let mut total = 0;
        for d in deps {
            if !d.is_loop_independent() || d.src_stmt == d.dst_stmt {
                continue;
            }
            let (Some(a), Some(b)) = (cps.get(&d.src_stmt), cps.get(&d.dst_stmt)) else {
                continue;
            };
            total += 1;
            if a.partition_key(env) == b.partition_key(env) {
                localized += 1;
            }
        }
        (localized, total)
    }

    #[test]
    fn grouped_cps_localize_dependences() {
        let (_loops, refs, env, deps, stmts, _outer) = setup(Y_SOLVE_OK);
        let cands = cands_for(&stmts, &refs, &env);
        let g = group_statements(&stmts, &cands, &deps);
        let cps = assign_group_cps(&g, &cands);
        let (localized, total) = localized_count(&deps, &cps, &env);
        assert_eq!(localized, total, "all loop-independent deps localized");
        assert!(total >= 2);
    }

    /// The paper's failing variant: a chain of loop-independent
    /// dependences restricts the first group to `@i`, then a statement
    /// whose only candidate is `@i+1` depends on it — no common choice,
    /// so the pair is marked and the loop splits into exactly two loops
    /// ("instead of 10 … from a maximum distribution").
    const Y_SOLVE_CONFLICT: &str = "
      subroutine s(a, e, f, g, h)
      parameter (n = 16)
      integer i, j
      double precision a(n, n), e(n, n), f(n, n), g(n, n), h(n, n)
!hpf$ processors p(2)
!hpf$ distribute (block, *) onto p :: a, e, f, g, h
      do j = 1, n
         do i = 2, n - 1
            a(i, j) = e(i, j) + 1.0
            f(i + 1, j) = a(i, j) + g(i + 1, j)
            h(i + 1, j) = g(i + 1, j) + f(i + 1, j)
         enddo
      enddo
      end
";

    #[test]
    fn conflicting_pair_marked_and_distributed() {
        let (loops, refs, env, deps, stmts, _outer) = setup(Y_SOLVE_CONFLICT);
        let cands = cands_for(&stmts, &refs, &env);
        let g = group_statements(&stmts, &cands, &deps);
        assert_eq!(g.marked.len(), 1, "groups: {:?}", g.groups);
        // partition at the inner loop (the statements' common loop)
        let inner = loops
            .loops
            .iter()
            .find(|(_, i)| i.depth == 1)
            .map(|(id, _)| *id)
            .unwrap();
        let inner_deps = analyze_loop_deps(inner, &loops, &refs);
        let parts = partition_loop(inner, &loops, &inner_deps, &g.marked);
        assert_eq!(parts.len(), 2, "minimal split into two loops: {parts:?}");
        let _ = env;
    }

    #[test]
    fn no_marks_means_single_partition() {
        let (loops, refs, _env, deps, _stmts, outer) = setup(Y_SOLVE_OK);
        let _ = &refs;
        let parts = partition_loop(outer, &loops, &deps, &[]);
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn tarjan_topological_order() {
        // 0→1→2, 2→1 (cycle 1-2), 3 isolated
        let adj = vec![vec![1], vec![2], vec![1], vec![]];
        let mut sccs = tarjan(4, &adj);
        sccs.reverse();
        // find positions
        let pos_of = |v: usize| sccs.iter().position(|s| s.contains(&v)).unwrap();
        assert!(pos_of(0) < pos_of(1));
        assert_eq!(pos_of(1), pos_of(2), "cycle shares an SCC");
    }

    #[test]
    fn marked_pairs_in_one_scc_stay_together() {
        // recurrence makes both statements one SCC: partitioning cannot
        // split them; we get a single partition (driver then descends)
        let (loops, refs, env, deps, stmts, _outer) = setup(
            "
      subroutine s(a, b)
      parameter (n = 16)
      integer i, j
      double precision a(n, n), b(n, n)
!hpf$ processors p(2)
!hpf$ distribute (block, *) onto p :: a, b
      do j = 2, n
         do i = 2, n - 1
            a(i, j) = b(i + 1, j) + a(i, j - 1)
            b(i + 1, j) = a(i + 1, j - 1) * 2.0
         enddo
      enddo
      end
",
        );
        let cands = cands_for(&stmts, &refs, &env);
        let g = group_statements(&stmts, &cands, &deps);
        // regardless of marks, the mutual carried deps keep one SCC
        let inner = loops
            .loops
            .iter()
            .find(|(_, i)| i.depth == 1)
            .map(|(id, _)| *id)
            .unwrap();
        let inner_deps = analyze_loop_deps(inner, &loops, &refs);
        let parts = partition_loop(inner, &loops, &inner_deps, &g.marked);
        assert_eq!(parts.len(), 1);
    }
}

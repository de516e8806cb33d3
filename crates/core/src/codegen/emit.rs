//! Human-readable listing of a compiled node program (the moral
//! equivalent of dHPF's generated-Fortran output; used by golden tests
//! and `dhpf bench plan-stats`).

use super::{CompiledUnit, GuardAtom, NodeOp, NodeProgram};
use std::fmt::Write;

/// Render the whole program.
pub fn listing(prog: &NodeProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "node program: grid {:?}, {} global arrays",
        prog.grid.extents,
        prog.arrays.len()
    );
    for ga in &prog.arrays {
        let _ = writeln!(
            out,
            "  array {:<16} bounds {:?} ghost {:?} {}",
            ga.name,
            ga.bounds,
            ga.ghost,
            if ga
                .dist
                .as_ref()
                .map(|d| d.is_distributed())
                .unwrap_or(false)
            {
                "distributed"
            } else {
                "serial"
            }
        );
    }
    for u in &prog.units {
        let _ = writeln!(
            out,
            "unit {} ({} ints, {} floats):",
            u.name, u.n_ints, u.n_floats
        );
        emit_ops(&u.ops, u, 1, &mut out);
    }
    out
}

fn ind(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit_ops(ops: &[NodeOp], u: &CompiledUnit, depth: usize, out: &mut String) {
    for op in ops {
        match op {
            NodeOp::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                ind(depth, out);
                let _ = writeln!(out, "do i{var} = {lo:?}, {hi:?}, {step}");
                emit_ops(body, u, depth + 1, out);
            }
            NodeOp::Assign {
                guard,
                arr,
                subs,
                flops,
                ..
            } => {
                ind(depth, out);
                let g = guard
                    .as_ref()
                    .map(|g| format!(" guard[{}]", render_guard(g, u)))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{}({}) = … ; {flops} flops{g}",
                    u.array_names[*arr],
                    subs.iter()
                        .map(|s| format!("{s:?}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
            NodeOp::AssignF {
                slot, flops, guard, ..
            } => {
                ind(depth, out);
                let g = guard.as_ref().map(|_| " guarded").unwrap_or_default();
                let _ = writeln!(out, "f{slot} = … ; {flops} flops{g}");
            }
            NodeOp::AssignI { slot, guard, .. } => {
                ind(depth, out);
                let g = guard.as_ref().map(|_| " guarded").unwrap_or_default();
                let _ = writeln!(out, "i{slot} = …{g}");
            }
            NodeOp::If { arms } => {
                ind(depth, out);
                let _ = writeln!(out, "if ({} arms)", arms.len());
                for (_, body) in arms {
                    emit_ops(body, u, depth + 1, out);
                }
            }
            NodeOp::Call { unit, .. } => {
                ind(depth, out);
                let _ = writeln!(out, "call unit#{unit}");
            }
            NodeOp::Exchange { msgs, tag, plan: _ } => {
                ind(depth, out);
                let vol: usize = msgs.iter().map(|m| m.elems()).sum();
                let segs: usize = msgs.iter().map(|m| m.segs.len()).sum();
                let _ = writeln!(
                    out,
                    "exchange tag {tag}: {} messages ({segs} segments), {vol} elements",
                    msgs.len()
                );
                emit_msgs(msgs, u, depth + 1, out);
            }
            NodeOp::OverlapNest {
                msgs,
                tag,
                levels,
                body,
                interior,
                plan: _,
            } => {
                ind(depth, out);
                let vol: usize = msgs.iter().map(|m| m.elems()).sum();
                let segs: usize = msgs.iter().map(|m| m.segs.len()).sum();
                let _ = writeln!(
                    out,
                    "overlap exchange tag {tag}: {} messages ({segs} segments), \
                     {vol} elements, {} levels, interior [{}]",
                    msgs.len(),
                    levels.len(),
                    render_term(interior, u)
                );
                emit_msgs(msgs, u, depth + 1, out);
                emit_ops(body, u, depth + 1, out);
            }
            NodeOp::Pipeline {
                strip,
                hops,
                tag,
                body,
                ..
            } => {
                ind(depth, out);
                let vol: usize = hops.iter().map(|m| m.elems()).sum();
                let segs: usize = hops.iter().map(|m| m.segs.len()).sum();
                let strip = match strip {
                    Some(s) => format!("level {} g={}", s.level, s.granularity),
                    None => "none".to_string(),
                };
                let _ = writeln!(
                    out,
                    "pipeline tag {tag}: {} hops ({segs} segments), {vol} elements, strip {strip}",
                    hops.len()
                );
                emit_msgs(hops, u, depth + 1, out);
                emit_ops(body, u, depth + 1, out);
            }
        }
    }
}

fn emit_msgs(
    msgs: &[crate::transfer::Transfer<usize>],
    u: &CompiledUnit,
    depth: usize,
    out: &mut String,
) {
    for m in msgs {
        ind(depth, out);
        let _ = writeln!(out, "{}->{}:", m.from, m.to);
        for s in &m.segs {
            ind(depth + 1, out);
            let _ = writeln!(out, "{} {:?}..{:?}", u.array_names[s.arr], s.lo, s.hi);
        }
    }
}

fn render_guard(g: &super::Guard, u: &CompiledUnit) -> String {
    let terms = g.terms.iter().map(|atoms| render_term(atoms, u));
    terms.collect::<Vec<_>>().join(" ∨ ")
}

/// One AND-term of a guard.
fn render_term(atoms: &[GuardAtom], u: &CompiledUnit) -> String {
    let atom = |a: &GuardAtom| match a {
        GuardAtom::In { arr, dim, sub } => format!("{}[{dim}]∋{sub:?}", u.array_names[*arr]),
        GuardAtom::Overlap { arr, dim, lo, hi } => {
            format!("{}[{dim}]∩[{lo:?},{hi:?}]", u.array_names[*arr])
        }
    };
    atoms.iter().map(atom).collect::<Vec<_>>().join("∧")
}

/// Plan statistics for one compiled program.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PlanStats {
    pub exchanges: usize,
    pub exchange_messages: usize,
    pub exchange_elements: usize,
    pub pipelines: usize,
    /// Exchanges overlapped with their nest's interior compute.
    pub overlapped: usize,
    pub guarded_statements: usize,
    pub statements: usize,
}

/// Collect plan statistics.
pub fn plan_stats(prog: &NodeProgram) -> PlanStats {
    let mut st = PlanStats::default();
    fn walk(ops: &[NodeOp], st: &mut PlanStats) {
        for op in ops {
            match op {
                NodeOp::Exchange { msgs, .. } => {
                    st.exchanges += 1;
                    st.exchange_messages += msgs.len();
                    st.exchange_elements += msgs.iter().map(|m| m.elems()).sum::<usize>();
                }
                NodeOp::OverlapNest { msgs, body, .. } => {
                    st.exchanges += 1;
                    st.overlapped += 1;
                    st.exchange_messages += msgs.len();
                    st.exchange_elements += msgs.iter().map(|m| m.elems()).sum::<usize>();
                    walk(body, st);
                }
                NodeOp::Pipeline { body, .. } => {
                    st.pipelines += 1;
                    walk(body, st);
                }
                NodeOp::Loop { body, .. } => walk(body, st),
                NodeOp::If { arms } => arms.iter().for_each(|(_, b)| walk(b, st)),
                NodeOp::Assign { guard, .. }
                | NodeOp::AssignF { guard, .. }
                | NodeOp::AssignI { guard, .. } => {
                    st.statements += 1;
                    if guard.is_some() {
                        st.guarded_statements += 1;
                    }
                }
                NodeOp::Call { .. } => {}
            }
        }
    }
    for u in &prog.units {
        walk(&u.ops, &mut st);
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile, CompileOptions};
    use dhpf_fortran::parse;

    fn compile_stencil() -> NodeProgram {
        let src = "
      program t
      parameter (n = 16)
      integer i, j
      double precision a(n, n), b(n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block) onto p :: a, b
      do j = 2, n - 1
         do i = 2, n - 1
            b(i, j) = a(i - 1, j) + a(i + 1, j)
         enddo
      enddo
      end
";
        compile(&parse(src).unwrap(), &CompileOptions::new())
            .unwrap()
            .program
    }

    #[test]
    fn listing_shows_exchange_and_guards() {
        let prog = compile_stencil();
        let text = listing(&prog);
        assert!(text.contains("exchange tag"), "{text}");
        assert!(text.contains("guard["), "{text}");
        assert!(text.contains("t::a"), "{text}");
    }

    /// An overlapped nest lists its interior as a guard term, one atom
    /// per halo read: the read's subscript lies in what the rank owns.
    #[test]
    fn listing_renders_the_interior_as_a_guard_term() {
        let prog = compile_stencil();
        let text = listing(&prog);
        let line = (text.lines())
            .find(|l| l.contains("overlap exchange tag"))
            .unwrap_or_else(|| panic!("an overlapped nest:\n{text}"));
        let (i, j) = ("CIdx { terms: [(1, 1)]", "CIdx { terms: [(0, 1)]");
        let interior =
            format!("interior [a[0]∋{i}, cst: -1 }}∧a[1]∋{j}, cst: 0 }}∧a[0]∋{i}, cst: 1 }}]");
        assert!(line.ends_with(&interior), "{line}");
    }

    #[test]
    fn plan_stats_count_structure() {
        let prog = compile_stencil();
        let st = plan_stats(&prog);
        assert_eq!(st.exchanges, 1);
        assert!(st.exchange_messages >= 4, "{st:?}");
        assert_eq!(st.pipelines, 0);
        assert_eq!(st.statements, 1);
        assert_eq!(st.guarded_statements, 1);
    }

    #[test]
    fn sweep_listing_shows_pipeline() {
        let src = "
      program t
      parameter (n = 16)
      integer i, j
      double precision a(n, n)
!hpf$ processors p(4)
!hpf$ distribute (*, block) onto p :: a
      do j = 2, n
         do i = 1, n
            a(i, j) = a(i, j) + a(i, j - 1)
         enddo
      enddo
      end
";
        let prog = compile(&parse(src).unwrap(), &CompileOptions::new())
            .unwrap()
            .program;
        let text = listing(&prog);
        assert!(text.contains("pipeline tag"), "{text}");
        // three links down the grid, each forwarding the sender's last column
        assert!(text.contains("3 hops (3 segments), 48 elements"), "{text}");
        assert!(
            text.contains("0->1:\n") && text.contains("a [1, 4]..[16, 4]"),
            "{text}"
        );
        let st = plan_stats(&prog);
        assert_eq!(st.pipelines, 1);
    }
}

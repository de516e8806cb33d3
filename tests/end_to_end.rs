//! Workspace integration tests: the full pipeline (parse → analyze →
//! optimize → plan → codegen → simulate) on the NAS benchmarks, verified
//! against the independent serial interpreter.

use dhpf::prelude::*;

fn max_delta(
    a: &dhpf::core::exec::serial::ArrayValue,
    b: &dhpf::core::exec::serial::ArrayValue,
) -> f64 {
    a.data
        .iter()
        .zip(&b.data)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn sp_all_four_versions_agree() {
    let class = Class::S;
    let serial = dhpf::nas::Kernel::Sp.run_serial_reference(class);

    // dHPF-compiled on a 2x2 grid
    let compiled = dhpf::nas::Kernel::Sp.run_dhpf(class, 4, MachineConfig::sp2(4));
    assert!(max_delta(&serial.arrays["u"], &compiled.arrays["u"]) < 1e-9);

    // hand-written multipartitioning
    let hand = dhpf::nas::sp::multipart::run(class, 4, MachineConfig::sp2(4)).unwrap();
    for k in 1..=class.n() as i64 {
        for j in 1..=class.n() as i64 {
            for i in 1..=class.n() as i64 {
                for m in 1..=5i64 {
                    let s = serial.arrays["u"].get(&[m, i, j, k]);
                    let h = hand.u.get(m as usize, i as usize, j as usize, k as usize);
                    assert!((s - h).abs() < 1e-9, "u({m},{i},{j},{k})");
                }
            }
        }
    }

    // transpose-based
    let pgi = dhpf::nas::sp::transpose::run(class, 4, MachineConfig::sp2(4)).unwrap();
    let s0 = serial.arrays["u"].get(&[1, 3, 3, 3]);
    let p0 = pgi.u.get(1, 3, 3, 3);
    assert!((s0 - p0).abs() < 1e-9);
}

#[test]
fn bt_compiled_matches_serial_at_multiple_counts() {
    let class = Class::S;
    let serial = dhpf::nas::Kernel::Bt.run_serial_reference(class);
    for nprocs in [1usize, 2, 4] {
        let r = dhpf::nas::Kernel::Bt.run_dhpf(class, nprocs, MachineConfig::sp2(nprocs));
        let d = max_delta(&serial.arrays["u"], &r.arrays["u"]);
        assert!(d < 1e-9, "BT at {nprocs} procs: worst delta {d:.3e}");
    }
}

#[test]
fn compiled_timing_is_deterministic() {
    let class = Class::S;
    let a = dhpf::nas::Kernel::Sp.run_dhpf(class, 4, MachineConfig::sp2(4));
    let b = dhpf::nas::Kernel::Sp.run_dhpf(class, 4, MachineConfig::sp2(4));
    assert_eq!(
        a.run.virtual_time, b.run.virtual_time,
        "virtual time must not depend on host scheduling"
    );
    assert_eq!(a.run.stats.messages, b.run.stats.messages);
    assert_eq!(a.run.stats.bytes, b.run.stats.bytes);
}

#[test]
fn hand_multipart_beats_compiled_at_scale() {
    // the paper's headline shape: multipartitioning is the gold standard
    let class = Class::W;
    let hand = dhpf::nas::sp::multipart::run(class, 4, MachineConfig::sp2(4)).unwrap();
    let comp = dhpf::nas::Kernel::Sp.run_dhpf(class, 4, MachineConfig::sp2(4));
    assert!(
        hand.run.virtual_time <= comp.run.virtual_time * 1.05,
        "hand {:.4}s vs compiled {:.4}s",
        hand.run.virtual_time,
        comp.run.virtual_time
    );
}

#[test]
fn every_compiled_nas_unit_passes_the_comm_verifier() {
    // The independent comm-coverage verifier (crates/analysis) must prove
    // every SP and BT nest plan covered — on every test run, so a planner
    // regression is a CONFIRMED miscompile report here before it is a
    // wrong number in the numerical comparisons above.
    for (name, compiled) in [
        (
            "SP S@4",
            dhpf::nas::Kernel::Sp.compile_dhpf(Class::S, 4, None),
        ),
        (
            "BT S@1",
            dhpf::nas::Kernel::Bt.compile_dhpf(Class::S, 1, None),
        ),
        (
            "BT S@2",
            dhpf::nas::Kernel::Bt.compile_dhpf(Class::S, 2, None),
        ),
        (
            "BT S@4",
            dhpf::nas::Kernel::Bt.compile_dhpf(Class::S, 4, None),
        ),
        (
            "SP W@4",
            dhpf::nas::Kernel::Sp.compile_dhpf(Class::W, 4, None),
        ),
        (
            "BT W@4",
            dhpf::nas::Kernel::Bt.compile_dhpf(Class::W, 4, None),
        ),
    ] {
        let r = verify_compiled(&compiled);
        assert!(
            r.is_clean(),
            "{name} failed comm verification:\n{}",
            r.render_human(None)
        );
        let races = dhpf::analysis::check_compiled_races(&compiled);
        assert!(
            races.is_clean(),
            "{name} ghost races:\n{}",
            races.render_human(None)
        );
        // The static SPMD protocol verifier: matching, congruence, wait
        // coverage, deadlock-freedom — rank-symbolically, on every compile.
        let proto = verify_protocol(&compiled);
        assert!(
            proto.is_clean(),
            "{name} protocol violations:\n{}",
            proto.render_human(None)
        );
    }
}

#[test]
fn degenerate_geometries_conformance() {
    // Degenerate processor geometries — a single rank (all communication
    // degenerates to nothing), prime counts (no even block split), and
    // non-square 2-D grids (different per-dimension protocols) — through
    // the full optimization-flag lattice and the complete fuzz oracle
    // matrix: serial numerics, comm coverage, static protocol, dynamic
    // traces, and the compile-twice fingerprint.
    let src_1d = "
      program deg1
      parameter (n = 47)
      integer np1, i
      double precision a(n), b(n)
!hpf$ processors p(np1)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = 0.50d0 + 0.01d0 * i
         b(i) = 1.0d0
      enddo
      do i = 3, n - 2
         b(i) = a(i - 2) + 0.25d0 * a(i + 2)
      enddo
      end
";
    let geoms_1d: Vec<Vec<i64>> = vec![vec![1], vec![5], vec![7]];
    let out = dhpf_fuzz::oracle::check_source(src_1d, 1, &geoms_1d, 4);
    assert!(
        out.failures.is_empty(),
        "1-D degenerate geometries regressed:\n{:#?}",
        out.failures
    );
    assert!(out.runs > 0, "1-D program never executed");

    let src_2d = "
      program deg2
      parameter (n = 24)
      integer np1, np2, i, j
      double precision d(n, n), e(n, n)
!hpf$ processors p(np1, np2)
!hpf$ distribute (block, block) onto p :: d, e
      do j = 1, n
         do i = 1, n
            d(i, j) = 0.50d0 + 0.01d0 * i + 0.02d0 * j
            e(i, j) = 1.0d0
         enddo
      enddo
      do j = 3, n - 2
         do i = 3, n - 2
            e(i, j) = d(i - 1, j) + d(i + 1, j) + 0.50d0 * d(i, j - 2)
         enddo
      enddo
      end
";
    let geoms_2d: Vec<Vec<i64>> = vec![vec![1, 1], vec![3, 5], vec![5, 2]];
    let out = dhpf_fuzz::oracle::check_source(src_2d, 2, &geoms_2d, 4);
    assert!(
        out.failures.is_empty(),
        "2-D degenerate geometries regressed:\n{:#?}",
        out.failures
    );
    assert!(out.runs > 0, "2-D program never executed");
}

#[test]
fn quickstart_program_compiles_and_verifies() {
    let src = "
      program t
      parameter (n = 16)
      integer i
      double precision a(n), b(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = i * i * 1.0d0
      enddo
      do i = 2, n - 1
         b(i) = a(i - 1) + a(i + 1)
      enddo
      end
";
    let program = parse(src).unwrap();
    let serial = run_serial(&program, &Default::default()).unwrap();
    let compiled = compile(&program, &CompileOptions::new()).unwrap();
    assert!(verify_compiled(&compiled).is_clean());
    assert!(verify_protocol(&compiled).is_clean());
    let r = run_node_program(&compiled.program, MachineConfig::sp2(2)).unwrap();
    assert!(max_delta(&serial.arrays["b"], &r.arrays["b"]) < 1e-12);
}

/// A RETURN that is not a unit's final statement used to be dropped —
/// by codegen in a called unit, by the inliner in an inlined one — so
/// the statements it skips ran anyway under a clean verifier (`bump`
/// called with `s = 1` added 100 to every `a(i)` the serial interpreter
/// leaves alone). It is now a compile error naming the unit; a final
/// RETURN still compiles.
#[test]
fn early_return_is_rejected_and_final_return_compiles() {
    let called = "
      program t
      double precision a(16)
      common /f/ a
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
      call bump(1.0d0)
      end

      subroutine bump(s)
      integer i
      double precision s, a(16)
      common /f/ a
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
      if (s .gt. 0.0d0) then
         return
      endif
      do i = 1, 16
         a(i) = a(i) + 100.0d0
      enddo
      end
";
    let inlined = "
      program t
      integer i
      double precision a(16)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
      do i = 1, 16
         a(i) = i * 1.0d0
         call bump(a, i)
      enddo
      end

      subroutine bump(x, i)
      integer i
      double precision x(16)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: x
      if (i .gt. 8) then
         return
      endif
      x(i) = x(i) + 100.0d0
      return
      end
";
    for (src, line) in [(called, 17), (inlined, 19)] {
        let Err(err) = compile(&parse(src).unwrap(), &CompileOptions::new()) else {
            panic!("an early RETURN must not compile");
        };
        assert_eq!(
            err.to_string(),
            format!(
                "in bump: line {line}: RETURN before the end of the unit is not supported \
                 (a mid-body RETURN is control flow the node program cannot express)"
            )
        );
    }

    let final_only = inlined.replace("         return\n", "         x(i) = 0.0d0\n");
    let program = parse(&final_only).unwrap();
    let serial = run_serial(&program, &Default::default()).unwrap();
    let compiled = compile(&program, &CompileOptions::new()).unwrap();
    assert!(verify_compiled(&compiled).is_clean());
    let r = run_node_program(&compiled.program, MachineConfig::sp2(2)).unwrap();
    assert_eq!(serial.arrays["a"].data, r.arrays["a"].data);
    assert_eq!(r.arrays["a"].data[15], 100.0);
}

/// Compile `src` with `np` bound (the extent its `processors` directive
/// names), run it on the grid that gives, and require array `a` bit for
/// bit as the serial interpreter leaves it. Returns the messages sent.
fn assert_a_matches_serial(src: &str, np: usize) -> u64 {
    let program = parse(src).unwrap();
    let serial = run_serial(&program, &Default::default()).unwrap();
    let compiled = compile(&program, &CompileOptions::new().bind("np", np as i64))
        .unwrap_or_else(|e| panic!("np = {np}: {e}\n{src}"));
    let ranks = compiled.program.grid.nprocs() as usize;
    let r = run_node_program(&compiled.program, MachineConfig::sp2(ranks)).unwrap();
    let bits = |a: &dhpf::core::exec::serial::ArrayValue| -> Vec<u64> {
        a.data.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(
        bits(&serial.arrays["a"]),
        bits(&r.arrays["a"]),
        "np = {np}: serial {:?}, compiled {:?}\n{src}",
        serial.arrays["a"].data,
        r.arrays["a"].data
    );
    r.run.stats.messages
}

/// A rank runs only the iterations of a loop in which it executes a
/// statement, and still leaves the loop variable where the whole loop
/// does: `a(i) = 7` after `do i = 1, 5` writes `a(5)` on every geometry,
/// also on the rank that owns `a(1..4)` and stops iterating at 4.
#[test]
fn loop_variable_after_a_shrunk_loop_matches_serial() {
    let src = "
      program post
      parameter (n = 8)
      integer np, i
      double precision a(n)
!hpf$ processors p(np)
!hpf$ distribute (block) onto p :: a
      do i = 1, 5
         a(i) = 1.0d0
      enddo
      a(i) = 7.0d0
      end
";
    for header in ["do i = 1, 5", "do i = n, 1, -1", "do i = 1, n, 3"] {
        let src = src.replace("do i = 1, 5", header);
        for np in [1, 2, 3] {
            assert_a_matches_serial(&src, np);
        }
    }
}

/// The (block, block) wavefront of `examples/hpf/sweep.f`, its strip
/// loop `j` outside the swept `i`: run backward, strided by 2 and by 3,
/// and read after the nest. Each strip chunk holds `granularity` trips
/// of the loop as it runs, and the strip variable ends where the whole
/// loop does. Strip chunks used to count values, ascending: a backward
/// or strided strip ran iterations in the wrong chunk or twice, and `j`
/// was left at the last value of the rank's own strip.
#[test]
fn strip_loops_of_any_step_match_serial() {
    let src = "
      program sweep
      parameter (n = 32)
      integer np1, np2, i, j
      double precision a(n, n)
!hpf$ processors p(np1, np2)
!hpf$ distribute (block, block) onto p :: a
      do j = 1, n
         do i = 1, n
            a(i, j) = i + j * 0.5d0
         enddo
      enddo
      do j = 1, n
         do i = 2, n
            a(i, j) = a(i, j) + 0.5d0 * a(i - 1, j)
         enddo
      enddo
      end
";
    let strip = "      do j = 1, n\n         do i = 2, n";
    let swept = |header: &str| src.replace(strip, &strip.replace("do j = 1, n", header));
    let read_after = src.replace("      end\n", "      a(1, 1) = j\n      end\n");
    let programs = [
        swept("do j = n, 1, -1"),
        swept("do j = 1, n, 2"),
        swept("do j = 1, n, 3"),
        read_after,
    ];
    for src in &programs {
        let program = parse(src).unwrap();
        let serial = run_serial(&program, &Default::default()).unwrap();
        let bits = |a: &dhpf::core::exec::serial::ArrayValue| -> Vec<u64> {
            a.data.iter().map(|v| v.to_bits()).collect()
        };
        for (np1, np2) in [(1, 1), (2, 2), (3, 2)] {
            for granularity in [1, 3, 4] {
                let mut opts = CompileOptions::new().bind("np1", np1).bind("np2", np2);
                opts.granularity = granularity;
                let compiled = compile(&program, &opts).unwrap();
                let ranks = (np1 * np2) as usize;
                let r = run_node_program(&compiled.program, MachineConfig::sp2(ranks)).unwrap();
                let (s, p) = (&serial.arrays["a"], &r.arrays["a"]);
                let differ = bits(s)
                    .iter()
                    .zip(bits(p))
                    .filter(|(s, p)| **s != *p)
                    .count();
                assert_eq!(
                    differ, 0,
                    "{np1}x{np2} ranks, granularity {granularity}: {differ} cells differ\n{src}"
                );
            }
        }
    }
}

/// A `do` step that is not a compile-time constant used to be read as 0
/// by the planned-nest, overlapped-nest and pipeline forms — the nest
/// then ran no iteration, silently — while the plain form rejected it.
#[test]
fn variable_do_step_is_a_compile_error() {
    let src = "
      program vs
      parameter (n = 8)
      integer i, k
      double precision a(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
      k = 2
      do i = 1, n, k
         a(i) = 1.0d0
      enddo
      end
";
    let zero = src.replace("do i = 1, n, k", "do i = 1, n, 0");
    for (src, text) in [
        (src, "codegen: non-constant do step"),
        (&zero, "codegen: zero do-loop step"),
    ] {
        let Err(err) = compile(&parse(src).unwrap(), &CompileOptions::new()) else {
            panic!("must not compile:\n{src}");
        };
        assert_eq!(err.to_string(), text);
    }
}

/// A COMMON array an inlined callee declares is the caller's array of
/// that name. The inliner used to rename every declaration of the callee
/// that is not a formal, COMMON members included, so the inlined body
/// updated a private `cm::a_bump` and `a` kept its 1.0 — with no error
/// anywhere. (It also cloned every COMMON array of every inlined leaf
/// into the node program: all but three of BT's unit-qualified arrays,
/// allocated whole on every rank and never referenced.)
#[test]
fn common_array_of_an_inlined_callee_is_the_callers() {
    let src = "
      program cm
      parameter (n = 8)
      integer np, i
      double precision a(n), b(n)
      common /f/ a, b
!hpf$ processors p(np)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = 1.0d0
         b(i) = 2.0d0
      enddo
      do i = 1, n
         call bump(i)
      enddo
      end

      subroutine bump(i)
      parameter (n = 8)
      integer np, i
      double precision a(n), b(n)
      common /f/ a, b
!hpf$ processors p(np)
!hpf$ distribute (block) onto p :: a, b
      a(i) = a(i) + b(i)
      end
";
    for np in [1, 2] {
        assert_a_matches_serial(src, np);
    }
    let serial = run_serial(&parse(src).unwrap(), &Default::default()).unwrap();
    assert_eq!(serial.arrays["a"].data, vec![3.0; 8]);

    // a caller whose `a` is its own cannot host the callee's COMMON `a`
    let local = src.replacen("      common /f/ a, b\n", "", 1);
    let Err(err) = compile(
        &parse(&local).unwrap(),
        &CompileOptions::new().bind("np", 2),
    ) else {
        panic!("must not compile:\n{local}");
    };
    assert_eq!(
        err.to_string(),
        "cannot inline bump into cm: `a` of common /f/ is a local of the caller"
    );

    let bt = dhpf::nas::Kernel::Bt.compile_dhpf(Class::S, 4, None);
    let qualified: Vec<&str> = (bt.program.arrays.iter())
        .map(|a| a.name.as_str())
        .filter(|name| name.contains("::"))
        .collect();
    assert_eq!(
        qualified,
        ["x_solve::cv", "y_solve::cv", "z_solve::cv"],
        "BT's leaves share the COMMON fields: only the solvers' scratch is a unit's own"
    );
}

/// Jacobi-style time loops: `it` subscripts nothing, so the wrapper is
/// transparent and each child nest is planned on its own, its exchange
/// inside `it`. `EXTRA` is where a statement joins the children; beside
/// each program, the messages it sends per value of `np`.
const TIME_LOOPS: [(&str, &[(usize, u64)]); 3] = [
    // examples/quickstart.rs
    (
        "
      program demo
      parameter (n = 32)
      integer np, i, it
      double precision a(n), b(n), x
!hpf$ processors p(np)
!hpf$ distribute (block) onto p :: a, b
      x = 0.0d0
      do i = 1, n
         a(i) = i * i * 1.0d0
         b(i) = 0.0d0
      enddo
      do it = 1, 5
         do i = 2, n - 1
            b(i) = (a(i - 1) + a(i + 1)) * 0.5d0
         enddo
         do i = 2, n - 1
            a(i) = b(i)
         enddo
         EXTRA
      enddo
      end
",
        &[(1, 0), (2, 10), (4, 30)],
    ),
    // the consumer of `a` updates it in place
    (
        "
      program acc
      parameter (n = 16)
      integer np, i, it
      double precision a(n), b(n), x
!hpf$ processors p(np)
!hpf$ distribute (block) onto p :: a, b
      x = 0.0d0
      do i = 1, n
         a(i) = i * i * 1.0d0
         b(i) = 0.0d0
      enddo
      do it = 1, 3
         do i = 2, n - 1
            b(i) = 0.5d0 * (a(i - 1) + a(i + 1))
         enddo
         do i = 2, n - 1
            a(i) = a(i) + b(i)
         enddo
         EXTRA
      enddo
      end
",
        &[(1, 0), (2, 6), (4, 18)],
    ),
    // a pipelined sweep per time step, on p(np, np)
    (
        "
      program sw
      parameter (n = 16)
      integer np, i, j, it
      double precision a(n, n), x
!hpf$ processors p(np, np)
!hpf$ distribute (block, block) onto p :: a
      x = 0.0d0
      do j = 1, n
         do i = 1, n
            a(i, j) = i * 1.0d0 + j
         enddo
      enddo
      do it = 1, 2
         do j = 2, n - 1
            do i = 2, n - 1
               a(i, j) = 0.25d0 * (a(i - 1, j) + a(i + 1, j))
            enddo
         enddo
         EXTRA
      enddo
      end
",
        &[(1, 0), (2, 12)],
    ),
];

/// A statement beside the child nests of a time loop used to make the
/// whole `it` loop one planned nest: every exchange was vectorized above
/// `it`, nothing checked the `it`-carried flow dependence, and the run
/// diverged from serial under a clean verifier (6 messages instead of 30
/// and max |serial - parallel| = 2.25 on the quickstart program at 4
/// ranks). `CONTINUE` and replicated scalar assignments leave the
/// wrapper transparent: same messages as without them, same bits.
#[test]
fn a_statement_in_a_time_loop_leaves_its_nests_planned_one_by_one() {
    for (src, expect) in TIME_LOOPS {
        for &(np, messages) in expect {
            for extra in ["", "continue", "x = x + 1.0d0"] {
                let sent = assert_a_matches_serial(&src.replace("EXTRA", extra), np);
                assert_eq!(sent, messages, "np = {np}, `{extra}`\n{src}");
            }
        }
    }
}

/// A distributed-array statement directly in the time-loop body does
/// make `it` the planned nest, and on more than one rank its exchanges
/// belong inside `it`: the planner says so, naming the array and the
/// loop. ROADMAP's three shapes of `a(i, j) = a(i, j) + 0.25d0` after the
/// nests (a loop variable read after its loop) used to panic in a
/// message pack, diverge from serial, and be rejected as needing
/// communication in "the same nest".
#[test]
fn an_array_statement_in_a_time_loop_runs_as_serial_or_is_rejected_by_name() {
    let after = [
        "a(i) = a(i) + 0.25d0",
        "a(i) = a(i) + 0.25d0",
        "a(i, j) = a(i, j) + 0.25d0",
    ];
    for ((src, expect), extra) in TIME_LOOPS.iter().zip(after) {
        let src = src.replace("EXTRA", extra);
        let unit = src.split_whitespace().nth(1).unwrap();
        for &(np, _) in *expect {
            let opts = CompileOptions::new().bind("np", np as i64);
            match compile(&parse(&src).unwrap(), &opts) {
                Ok(_) => {
                    assert_a_matches_serial(&src, np);
                }
                Err(e) => assert_eq!(
                    e.to_string(),
                    format!(
                        "in {unit}: communication analysis: read of `a` needs communication \
                         inside loop `it` (value produced on another processor in an earlier \
                         iteration)"
                    ),
                    "np = {np}\n{src}"
                ),
            }
        }
    }
}

/// `examples/hpf/timeloop.f`: jacobi.f with a scalar accumulation and a
/// `continue` in its time loop (CI lints it clean with `--verify`).
#[test]
fn timeloop_example_matches_serial() {
    let src = include_str!("../examples/hpf/timeloop.f");
    let program = parse(src).unwrap();
    let serial = run_serial(&program, &Default::default()).unwrap();
    let compiled = compile(&program, &CompileOptions::new()).unwrap();
    assert!(verify_compiled(&compiled).is_clean());
    assert!(verify_protocol(&compiled).is_clean());
    let r = run_node_program(&compiled.program, MachineConfig::sp2(4)).unwrap();
    assert_eq!(serial.arrays["a"].data, r.arrays["a"].data);
    // 3 block boundaries x 2 directions, every time step
    assert_eq!(r.run.stats.messages, 4 * 6);
}

/// A pipelined sweep's strip loop is cut along the dimension of the swept
/// array that the *sweep nest* subscripts with the strip variable. Here
/// the sweep strips along `k`, `a`'s third dimension in the nest; the
/// init nest before it writes `a(k, j, i)`, with `k` first. Reading the
/// strip dimension off the unit's first reference to `a` sent the wrong
/// boundary sections: 0.74 away from serial, and the verifier was clean.
#[test]
fn strip_dimension_comes_from_the_swept_nest() {
    let src = "
      program probe
      parameter (n = 16)
      integer i, j, k
      double precision a(n, n, n), b(n, n, n)
!hpf$ processors pr(4)
!hpf$ distribute (*, block, *) onto pr :: a, b
      do i = 1, n
         do j = 1, n
            do k = 1, n
               a(k, j, i) = 1.0d0 + 0.01d0 * k + 0.001d0 * j + 0.0001d0 * i
               b(k, j, i) = 0.5d0 + 0.02d0 * i
            enddo
         enddo
      enddo
      do k = 1, n
         do j = 2, n
            do i = 1, n
               a(i, j, k) = a(i, j - 1, k) * 0.5d0 + b(i, j, k)
            enddo
         enddo
      enddo
      end
";
    let program = parse(src).unwrap();
    let serial = run_serial(&program, &Default::default()).unwrap();
    let compiled = compile(&program, &CompileOptions::new()).unwrap();
    let r = run_node_program(&compiled.program, MachineConfig::sp2(4)).unwrap();
    let (s, p) = (&serial.arrays["a"], &r.arrays["a"]);
    let bits = |a: &dhpf::core::exec::serial::ArrayValue| -> Vec<u64> {
        a.data.iter().map(|v| v.to_bits()).collect()
    };
    assert!(
        bits(s) == bits(p),
        "max |serial - parallel| = {}",
        max_delta(s, p)
    );
}

/// The pipeline ops of a node program, by their provenance records.
fn pipelines(compiled: &dhpf::core::Compiled) -> usize {
    let provs = compiled.program.provenance.iter();
    provs
        .filter(|p| p.kind == dhpf::core::codegen::ProvKind::Pipeline)
        .count()
}

/// A sweep along a grid dimension of extent 1 crosses no link: on
/// `p(1, 1)`, and on `p(1, 4)`, where `examples/hpf/sweep.f`'s `i` sweeps
/// the extent-1 dimension, the nest is planned as a parallel nest (no
/// `Pipeline` op, no strip chunks) and runs bit for bit as the serial
/// interpreter does. On `p(4, 1)` the same sweep crosses three links and
/// stays pipelined. SP and BT at one rank hold no `Pipeline` either.
#[test]
fn no_pipeline_without_a_link() {
    let src = include_str!("../examples/hpf/sweep.f")
        .replace("processors p(2, 2)", "processors p(np1, np2)")
        .replace("integer i, j", "integer np1, np2, i, j");
    let program = parse(&src).unwrap();
    let serial = run_serial(&program, &Default::default()).unwrap();
    let bits = |a: &dhpf::core::exec::serial::ArrayValue| -> Vec<u64> {
        a.data.iter().map(|v| v.to_bits()).collect()
    };
    for (np1, np2, pipelined) in [(1, 1, false), (1, 4, false), (4, 1, true)] {
        let opts = CompileOptions::new().bind("np1", np1).bind("np2", np2);
        let compiled = compile(&program, &opts).unwrap();
        assert_eq!(pipelines(&compiled) > 0, pipelined, "{np1}x{np2}");
        assert!(verify_compiled(&compiled).is_clean(), "{np1}x{np2}");
        let ranks = (np1 * np2) as usize;
        let r = run_node_program(&compiled.program, MachineConfig::sp2(ranks)).unwrap();
        assert!(
            bits(&serial.arrays["a"]) == bits(&r.arrays["a"]),
            "{np1}x{np2}"
        );
    }
    for kernel in [dhpf::nas::Kernel::Sp, dhpf::nas::Kernel::Bt] {
        let compiled = kernel.compile_dhpf(Class::S, 1, None);
        assert_eq!(pipelines(&compiled), 0, "{} at one rank", kernel.name());
    }
}

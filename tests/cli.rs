//! Exit-code contract for the `dhpf` binary: **0** success, **1**
//! parse/compile/IO failure, **2** usage error — the same convention
//! `dhpf-lint` documents in the README. A reader that closes standard
//! output early, or standard error, changes none of them.

use std::process::{Command, Stdio};

fn dhpf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dhpf"))
        .args(args)
        .output()
        .expect("spawn dhpf")
}

#[test]
fn missing_input_is_a_usage_error() {
    let out = dhpf(&["compile"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no input"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = dhpf(&["frobnicate", "--nas", "sp"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// Compilation is single-threaded and `--jobs` is gone: a stale script
/// must fail loudly rather than silently compile serially.
#[test]
fn removed_jobs_option_is_a_usage_error() {
    let out = dhpf(&["compile", "--nas", "sp", "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs") && err.contains("usage:"), "{err}");
}

#[test]
fn unknown_benchmark_is_a_usage_error() {
    let out = dhpf(&["compile", "--nas", "lu"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown benchmark"), "{err}");
}

/// A NAS run is sized by `--class`; a `--bind` next to `--nas` used to be
/// dropped without a word.
#[test]
fn bind_next_to_nas_is_a_usage_error() {
    let out = dhpf(&["compile", "--nas", "sp", "--bind", "nx=64"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--bind") && err.contains("--class"), "{err}");
}

/// `dhpf bench figure` at a count the version cannot run at: exit 2 with
/// the reason and the valid counts, not a panic.
#[test]
fn unrunnable_figure_count_is_a_usage_error() {
    for (version, nprocs, valid) in [
        ("pgi", "16", "valid counts: 1..=12"),
        ("hand", "6", "valid counts: 1, 4, 9, 16, 36, 144"),
    ] {
        let out = dhpf(&[
            "bench",
            "figure",
            "--nas",
            "sp",
            "--version",
            version,
            "--nprocs",
            nprocs,
        ]);
        assert_eq!(out.status.code(), Some(2), "{version}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("cannot run on") && err.contains(valid),
            "{err}"
        );
        assert!(
            !err.contains("panicked") && out.stdout.is_empty(),
            "{out:?}"
        );
    }
}

#[test]
fn bench_without_or_with_unknown_subcommand_is_a_usage_error() {
    for args in [&["bench"][..], &["bench", "frobnicate"][..]] {
        let out = dhpf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        for sub in ["table", "figure", "flags", "plan-stats", "compile"] {
            assert!(
                err.contains(&format!("\n  {sub} ")),
                "{sub} not listed: {err}"
            );
        }
    }
    // a flag another subcommand owns is rejected, not ignored; so is a
    // processor count no grid can be laid over
    for args in [
        &["bench", "table", "--nas", "sp", "--quick"][..],
        &[
            "bench",
            "figure",
            "--nas",
            "sp",
            "--version",
            "dhpf",
            "--nprocs",
            "0",
        ][..],
    ] {
        let out = dhpf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

#[test]
fn unreadable_file_is_a_runtime_failure_not_usage() {
    let out = dhpf(&["compile", "/nonexistent/input.f"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn nas_compile_succeeds_with_and_without_overlap() {
    for extra in [&[][..], &["--no-overlap"][..]] {
        let mut args = vec!["compile", "--nas", "sp", "--class", "S", "--nprocs", "4"];
        args.extend_from_slice(extra);
        let out = dhpf(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    }
}

/// A run that fails on a rank reports its `ExecError` in one line and
/// exits 1: no panic banner or backtrace per failing rank, even with
/// backtraces asked for (the program is
/// `exec_errors.rs::section_outside_the_window_is_a_structured_error`'s).
#[test]
fn failed_run_is_one_line_without_panic_banners() {
    let src = "
      program t
      integer i
      double precision a(16), b(16)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, 16
         a(i) = 1.0d0 * i
         b(i) = 0.0d0
      enddo
      call smooth(a, b)
      end

      subroutine smooth(x, y)
      integer i
      double precision x(16), y(16)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: x, y
      do i = 2, 15
         y(i) = 0.5d0*(x(i-1) + x(i+1))
      enddo
      end
";
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("outside_window.f");
    std::fs::write(&path, src).expect("writes the program");
    let out = Command::new(env!("CARGO_BIN_EXE_dhpf"))
        .args(["compile", path.to_str().unwrap(), "--nprocs", "2", "--run"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn dhpf");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {err}");
    assert!(
        lines[0].starts_with("dhpf: execution failed: exec: rank ")
            && lines[0].contains("outside its window"),
        "stderr: {err}"
    );
}

/// Run `dhpf args` with the read end of its standard output (`stdout`)
/// or of its standard error closed before it writes anything, as
/// `dhpf … | head -0` leaves it.
fn dhpf_closed(args: &[&str], stdout: bool) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dhpf"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dhpf");
    if stdout {
        drop(child.stdout.take());
    } else {
        drop(child.stderr.take());
    }
    child.wait_with_output().expect("dhpf ends")
}

/// A reader that stops reading ends the command quietly and
/// successfully: no panic on the broken pipe, exit 0.
#[test]
fn closed_stdout_ends_quietly() {
    for args in [
        &["explain", "--nas", "sp", "--class", "S", "--nprocs", "4"][..],
        &[
            "explain", "--nas", "sp", "--class", "S", "--nprocs", "4", "--json",
        ][..],
    ] {
        let out = dhpf_closed(args, true);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            !err.contains("panicked") && !err.contains("Broken pipe"),
            "{err}"
        );
    }
}

/// With standard error closed, a failure still exits with its own code:
/// 1 for an unreadable input, 2 for a usage error — not a panic's 101.
#[test]
fn closed_stderr_keeps_the_failure_code() {
    for (args, code) in [
        (&["compile", "/nonexistent/input.f"][..], 1),
        (&["compile", "--nas", "lu"][..], 2),
        (&["bench", "frobnicate"][..], 2),
    ] {
        let out = dhpf_closed(args, false);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
    }
}

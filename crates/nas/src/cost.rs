//! The shared virtual-compute cost model.
//!
//! The compiled versions charge virtual time per executed statement
//! instance using the statement's static flop weight. The hand-written
//! versions (multipartitioning, transpose) must charge *identical* time
//! for identical work, or the table comparisons would be meaningless.
//! We guarantee this by **calibration**: the per-phase per-point weights
//! are measured from a serial interpreter run of the same Fortran source
//! on a small grid, then reused by every hand-coded implementation.

use crate::classes::Class;
use dhpf_core::exec::serial::run_serial;
use std::collections::BTreeMap;

/// Per-phase flops per interior grid point, calibrated from the
/// Fortran source itself.
#[derive(Clone, Debug, Default)]
pub struct PhaseCosts {
    /// unit name → flops per point per call.
    pub per_point: BTreeMap<String, f64>,
}

impl PhaseCosts {
    pub fn of(&self, phase: &str) -> f64 {
        *self.per_point.get(phase).unwrap_or(&0.0)
    }
}

/// Calibrate per-point phase costs by interpreting the given source
/// serially on a calibration grid of `n³` points for one timestep.
pub fn calibrate(source: &str, mut bindings: BTreeMap<String, i64>, n: usize) -> PhaseCosts {
    bindings.insert("nx".into(), n as i64);
    bindings.insert("ny".into(), n as i64);
    bindings.insert("nz".into(), n as i64);
    bindings.insert("niter".into(), 1);
    let program = dhpf_fortran::parse(source).expect("source parses");
    let result = run_serial(&program, &bindings).expect("calibration run");
    let points = (n * n * n) as f64;
    PhaseCosts {
        per_point: result
            .flops_by_unit
            .iter()
            .map(|(unit, fl)| (unit.clone(), *fl as f64 / points))
            .collect(),
    }
}

/// Calibrated SP costs for a class (cached; per-point weights are NOT
/// size-invariant because boundary fractions shrink with n, so each
/// class calibrates at its own grid size).
pub fn sp_costs(class: Class) -> PhaseCosts {
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use std::sync::OnceLock;
    static CACHE: OnceLock<Mutex<BTreeMap<usize, PhaseCosts>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut guard = cache.lock().unwrap();
    guard
        .entry(class.n())
        .or_insert_with(|| {
            calibrate(
                &crate::sp::source(),
                crate::Kernel::Sp.bindings(class, 1),
                class.n(),
            )
        })
        .clone()
}

/// Calibrated BT costs for a class (cached).
pub fn bt_costs(class: Class) -> PhaseCosts {
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use std::sync::OnceLock;
    static CACHE: OnceLock<Mutex<BTreeMap<usize, PhaseCosts>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut guard = cache.lock().unwrap();
    guard
        .entry(class.n())
        .or_insert_with(|| {
            calibrate(
                &crate::bt::source(),
                crate::Kernel::Bt.bindings(class, 1),
                class.n(),
            )
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_calibration_covers_all_phases() {
        let c = sp_costs(Class::S);
        for phase in [
            "initialize",
            "compute_rhs",
            "x_solve",
            "y_solve",
            "z_solve",
            "add",
        ] {
            assert!(c.of(phase) > 0.0, "phase {phase} has no cost: {c:?}");
        }
        // the line solves are the heavy phases
        assert!(c.of("compute_rhs") > c.of("add"));
    }

    #[test]
    fn bt_solves_cost_more_than_sp() {
        let sp = sp_costs(Class::S);
        let bt = bt_costs(Class::S);
        assert!(
            bt.of("y_solve") > sp.of("y_solve") * 3.0,
            "5x5 block solves must dominate scalar solves: bt={} sp={}",
            bt.of("y_solve"),
            sp.of("y_solve")
        );
    }
}

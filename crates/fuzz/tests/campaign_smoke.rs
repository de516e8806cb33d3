//! Small pinned-seed campaign as an integration test: the library-level
//! analogue of the CI smoke stage. Any failure prints the per-oracle
//! breakdown plus minimized sources for diagnosis.

use dhpf_fuzz::{run_campaign, CampaignConfig};

#[test]
fn pinned_campaign_is_clean() {
    let cfg = CampaignConfig {
        seed: 20260806,
        count: 12,
        geometries: vec![vec![1], vec![4], vec![2, 3]],
        mutants: 1,
        ..Default::default()
    };
    let report = run_campaign(&cfg);
    assert!(report.clean(), "campaign not clean:\n{}", report.to_json());
    assert_eq!(report.programs, cfg.count);
    assert!(report.compiles > 0 && report.runs > 0 && report.messages > 0);
    // every oracle of the matrix must actually have fired: a campaign
    // that never evaluates an oracle is vacuously clean (`compile` only
    // ticks when a configuration declines a program, which none of
    // these twelve provokes)
    for oracle in [
        "generate",
        "roundtrip",
        "serial",
        "coverage",
        "protocol-static",
        "protocol-dynamic",
        "numeric",
        "fingerprint",
    ] {
        assert!(
            report.checked.get(oracle).is_some_and(|&n| n > 0),
            "oracle {oracle} never ran: {:?}",
            report.checked
        );
    }
    let mutation = report.mutation.as_ref().expect("one mutant requested");
    assert!(mutation.planted >= 1 && mutation.caught_twice == mutation.planted);
}

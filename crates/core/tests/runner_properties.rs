//! Property tests for the supervised runner's quarantine discipline.

use proptest::prelude::*;
use vmprobe::{ExperimentConfig, ExperimentError, FaultPlan, Runner};
use vmprobe_heap::CollectorKind;
use vmprobe_workloads::InputScale;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// A failing cell runs exactly once: its fault plan is derived from
    /// the master seed and the cell key, so a rerun could only fail the
    /// same way. Every later request replays the quarantined failure from
    /// the negative memo entry without executing anything.
    #[test]
    fn a_quarantined_config_is_never_retried(
        oom_at in 1u64..50,
        extra_runs in 1u64..4,
    ) {
        let plan = FaultPlan::parse(&format!("oom@{oom_at}")).unwrap();
        let mut runner = Runner::new().with_faults(plan);
        let mut cfg = ExperimentConfig::jikes("moldyn", CollectorKind::GenCopy, 32);
        cfg.scale = InputScale::Reduced;

        // First request: one run, then quarantine. The underlying error
        // surfaces on this request.
        let first = runner.run(&cfg).expect_err("oom fails");
        prop_assert!(matches!(first, ExperimentError::Vm { .. }), "expected Vm, got {first:?}");
        let first = first.to_string();
        prop_assert_eq!(runner.report().faults.injected_oom, 1, "one run");
        prop_assert_eq!(runner.report().quarantined.len(), 1);
        prop_assert_eq!(&runner.report().quarantined[0].last_error, &first);

        // Every later request is refused from the negative cache without
        // executing: the injected-OOM count stays frozen.
        for i in 0..extra_runs {
            match runner.run(&cfg) {
                Err(ExperimentError::Quarantined { last_error, .. }) => {
                    prop_assert_eq!(&last_error, &first);
                }
                other => prop_assert!(false, "expected Quarantined, got {other:?}"),
            }
            prop_assert_eq!(runner.report().faults.injected_oom, 1);
            prop_assert_eq!(runner.report().quarantine_hits, i + 1);
        }
        prop_assert_eq!(runner.report().quarantined.len(), 1);
    }
}

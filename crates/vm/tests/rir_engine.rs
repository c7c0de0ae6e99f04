//! Register-engine (`rir`) behaviour: every tier reproduces the digests
//! recorded from the stack interpreter it replaced, tier snapshotting (no
//! OSR), call boundaries across tiers, and the typed errors that replace
//! panics on malformed programs.

use vmprobe_bytecode::{assemble, ArrKind, MathFn, MethodId, Program, ProgramBuilder};
use vmprobe_faults::FaultPlan;
use vmprobe_heap::CollectorKind;
use vmprobe_power::ComponentId;
use vmprobe_vm::{Personality, RunOutcome, Value, Vm, VmConfig, VmError};

/// FNV-1a over the `Debug` rendering of every simulated observable of a
/// run, or of its typed error. The constants the tests below compare
/// against were recorded from the stack interpreter; a mismatch is an
/// engine bug, never a reason to re-record.
fn digest(out: &Result<RunOutcome, VmError>) -> u64 {
    let text = match out {
        Ok(o) => format!(
            "{:?}",
            (
                &o.report,
                &o.gc,
                &o.vm,
                &o.compiler,
                o.duration,
                o.result,
                o.live_bytes_end,
                o.total_alloc_bytes,
                &o.spans,
            )
        ),
        Err(e) => format!("{e:?}"),
    };
    text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A hot leaf kernel invoked enough times for the Jikes controller to
/// promote it to `Tier::Opt` well before the run ends.
fn hot_kernel_program(iters: i64) -> Program {
    let mut p = ProgramBuilder::new();
    let cls = p.class("Hot").build();
    let kernel = p.method(cls, "kernel", 1, 1, |b| {
        b.load(0);
        b.for_range(1, 0, 40, |b| {
            b.const_i(3).add();
        });
        b.ret_value();
    });
    let main = p.method(cls, "main", 0, 2, |b| {
        b.const_i(0).store(0);
        b.for_range(1, 0, iters, |b| {
            b.load(0).call(kernel).store(0);
        });
        b.load(0).ret_value();
    });
    p.finish(main).unwrap()
}

#[test]
fn promoted_methods_reproduce_the_recorded_digest() {
    let cfg = VmConfig::jikes(CollectorKind::SemiSpace, 1 << 20).opt_threshold(2_000);
    let out = Vm::new(hot_kernel_program(30_000), cfg).run().unwrap();
    assert!(
        out.compiler.opt_compiles >= 1,
        "kernel should get promoted: {:?}",
        out.compiler
    );
    assert_eq!(out.rir_bytecodes, out.vm.bytecodes);
    assert_eq!(
        digest(&Ok(out)),
        0x8f0a2a16dd467456,
        "promoted kernel digest"
    );
}

#[test]
fn promotion_mid_activation_keeps_the_old_tier() {
    // `main` is entered once and never re-invoked. Its back-edge counter
    // promotes it mid-activation, so an opt compile happens — but with no
    // on-stack replacement the activation keeps being metered at the
    // baseline tier it was invoked at. This pins the modeled lack of OSR
    // documented on `Tier::dispatch_ops`.
    let program = || {
        let mut p = ProgramBuilder::new();
        let cls = p.class("Mono").build();
        let main = p.method(cls, "main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 300_000, |b| {
                b.load(0).const_i(1).add().store(0);
            });
            b.load(0).ret_value();
        });
        p.finish(main).unwrap()
    };
    let mut cfg = VmConfig::jikes(CollectorKind::SemiSpace, 1 << 20).opt_threshold(1);
    // Shrink the quantum so the controller gets several scans inside the
    // one long-running activation.
    cfg.quantum_cycles = 100_000;
    let promoted = Vm::new(program(), cfg).run().unwrap();
    let never = Vm::new(program(), cfg.opt_threshold(u64::MAX))
        .run()
        .unwrap();
    assert!(
        promoted.compiler.opt_compiles >= 1,
        "the single hot activation should still trigger an opt compile"
    );
    assert_eq!(never.compiler.opt_compiles, 0);
    // The application retires as many instructions as in a run whose
    // controller never promotes, up to the periodic perf sampler's
    // attribution slack (about 1.5% here). Metering the rest of the
    // activation at `Tier::Opt` would drop its dispatch µops and
    // memory-resident locals, cutting the count by more than half.
    let app = |o: &RunOutcome| o.report.components[&ComponentId::Application].instructions;
    let (promoted_app, never_app) = (app(&promoted) as f64, app(&never) as f64);
    assert!(
        (promoted_app - never_app).abs() < 0.03 * never_app,
        "the activation must stay metered at Tier::Baseline after promotion: \
         {promoted_app} vs {never_app} application instructions"
    );
    assert_eq!(promoted.result, Some(Value::I(300_000)));
    assert_eq!(
        digest(&Ok(promoted)),
        0x96abb1c849287a41,
        "promoted-activation digest"
    );
}

#[test]
fn mixed_tier_call_boundaries_reproduce_the_recorded_digest() {
    // main -> kernel -> leaf, all hot. Promotion is staggered (the opt
    // queue retires one method per quantum), so the run crosses every
    // caller/callee tier combination: baseline->baseline before
    // promotion, baseline->opt once `kernel` is Opt, opt->baseline while
    // `leaf` lags one quantum behind, and opt->opt at steady state. The
    // kernel also allocates, so GC scans live register windows
    // mid-flight.
    let build = || {
        let mut p = ProgramBuilder::new();
        let cls = p.class("Mix").field("v", vmprobe_bytecode::Ty::Int).build();
        let leaf = p.method(cls, "leaf", 1, 0, |b| {
            b.load(0)
                .const_i(7)
                .mul()
                .i2f()
                .math(MathFn::Sqrt)
                .f2i()
                .ret_value();
        });
        let kernel = p.method(cls, "kernel", 1, 1, |b| {
            // A short-lived object per call keeps the allocator busy.
            b.new_obj(cls).dup();
            b.load(0).put_field(0);
            b.get_field(0).call(leaf);
            b.load(0).add().ret_value();
        });
        let main = p.method(cls, "main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 40_000, |b| {
                b.load(0).call(kernel).store(0);
            });
            b.load(0).ret_value();
        });
        p.finish(main).unwrap()
    };
    let mut cfg = VmConfig::jikes(CollectorKind::GenCopy, 256 << 10).opt_threshold(2_000);
    // A short quantum staggers the promotions across many scheduler
    // slices, maximizing the time spent in mixed-tier configurations.
    cfg.quantum_cycles = 100_000;
    let out = Vm::new(build(), cfg).run().unwrap();
    assert!(out.compiler.opt_compiles >= 2, "{:?}", out.compiler);
    assert!(out.gc.minor_collections > 0, "heap should cycle under load");
    assert_eq!(digest(&Ok(out)), 0x60a151bfa52c98a6, "mixed-tier digest");
}

#[test]
fn measurement_and_vm_faults_reproduce_the_recorded_digests() {
    for (spec, expected) in [
        ("drop=0.05,dup=0.02,noise=0.01,seed=7", 0x710c645f68dcb039),
        ("budget=200000", 0x7fefe5d85808fcbe),
    ] {
        let faults = FaultPlan::parse(spec).unwrap();
        let cfg = VmConfig::jikes(CollectorKind::SemiSpace, 1 << 20)
            .opt_threshold(2_000)
            .faults(faults);
        let out = Vm::new(hot_kernel_program(30_000), cfg).run();
        assert_eq!(digest(&out), expected, "fault {spec} digest");
    }
}

#[test]
fn kaffe_runs_on_the_register_engine() {
    // Kaffe has no optimizing tier, yet its JIT frames run on the
    // register engine too: the tier sets what each bytecode costs, not
    // which engine executes it.
    let out = Vm::new(hot_kernel_program(5_000), VmConfig::kaffe(1 << 20))
        .run()
        .unwrap();
    assert!(out.compiler.jit_compiles > 0);
    assert_eq!(out.compiler.opt_compiles, 0);
    assert_eq!(out.rir_bytecodes, out.vm.bytecodes);
    assert_eq!(digest(&Ok(out)), 0xac49fb47cc0fb982, "Kaffe JIT digest");
}

#[test]
fn negative_array_length_is_a_typed_fault_not_a_clamp() {
    // Regression: `new_arr` used to clamp a negative length to zero and
    // carry on. The verifier tracks types, not value ranges, so this
    // program loads fine and must fault at run time with the offending
    // pc and length.
    let program = assemble(
        "
        .method main 0 1 ret
            const_i -4
            new_arr int
            ret_value
        ",
    )
    .unwrap();
    let err = Vm::new(program, VmConfig::jikes(CollectorKind::SemiSpace, 1 << 20))
        .run()
        .unwrap_err();
    match err {
        VmError::NegativeArrayLength { pc, len, .. } => {
            assert_eq!(pc, 1, "fault pc is the new_arr instruction");
            assert_eq!(len, -4, "the unclamped length is reported");
        }
        other => panic!("expected NegativeArrayLength, got {other}"),
    }
}

#[test]
fn negative_array_length_faults_at_the_recorded_pc_after_promotion() {
    // The hot kernel allocates arrays from its argument; after promotion
    // the final iteration passes a negative length, which must raise the
    // typed fault the stack interpreter raised, at the same pc.
    let build = || {
        let mut p = ProgramBuilder::new();
        let cls = p.class("Arr").build();
        let kernel = p.method(cls, "kernel", 1, 0, |b| {
            b.load(0).new_arr(ArrKind::Int).arr_len().ret_value();
        });
        let main = p.method(cls, "main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 30_000, |b| {
                b.const_i(3).call(kernel).store(0);
            });
            b.const_i(-4).call(kernel).ret_value();
        });
        p.finish(main).unwrap()
    };
    let cfg = VmConfig::jikes(CollectorKind::SemiSpace, 1 << 20).opt_threshold(2_000);
    let err = Vm::new(build(), cfg).run().unwrap_err();
    assert_eq!(
        err,
        VmError::NegativeArrayLength {
            method: MethodId(0),
            pc: 1,
            len: -4
        }
    );
}

#[test]
fn entry_method_with_arguments_is_a_typed_error() {
    let program = assemble(".method main 1 1\n ret\n").unwrap();
    let err = Vm::new(program, VmConfig::jikes(CollectorKind::SemiSpace, 1 << 20))
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        VmError::EntryTakesArguments {
            method: MethodId(0),
            n_args: 1
        }
    );
}

#[test]
fn operand_stack_references_are_roots_across_calls() {
    // Each iteration leaves a fresh object on `main`'s operand stack as
    // its only reference, then calls a method that allocates enough
    // garbage to collect. The suspended frame's live operand slots must
    // root the object, on every collector and on both sides of
    // promotion.
    let build = || {
        let mut p = ProgramBuilder::new();
        let cls = p.class("Box").field("v", vmprobe_bytecode::Ty::Int).build();
        let churn = p.method(cls, "churn", 0, 1, |b| {
            b.for_range(0, 0, 16, |b| {
                b.const_i(64).new_arr(ArrKind::Int).pop();
            });
            b.ret();
        });
        let main = p.method(cls, "main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 400, |b| {
                b.load(0);
                b.new_obj(cls).dup().const_i(1).put_field(0);
                b.call(churn);
                b.get_field(0).add().store(0);
            });
            b.load(0).ret_value();
        });
        p.finish(main).unwrap()
    };
    for cfg in [
        VmConfig::jikes(CollectorKind::SemiSpace, 96 << 10),
        VmConfig::jikes(CollectorKind::MarkSweep, 96 << 10),
        VmConfig::jikes(CollectorKind::GenCopy, 96 << 10),
        VmConfig::jikes(CollectorKind::GenMs, 96 << 10),
        VmConfig::kaffe(96 << 10),
    ] {
        let mut cfg = cfg.opt_threshold(200);
        cfg.quantum_cycles = 20_000;
        let out = Vm::new(build(), cfg).run().unwrap();
        assert!(
            out.gc.collections > 0 || out.vm.gc_increments > 0,
            "{cfg:?}"
        );
        if cfg.personality == Personality::JikesRvm {
            assert!(out.compiler.opt_compiles > 0, "{cfg:?}");
        }
        assert_eq!(out.result, Some(Value::I(400)), "{cfg:?}");
    }
}

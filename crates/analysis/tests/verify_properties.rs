//! Property and mutation tests for the verifier.
//!
//! Two obligations: every program the builder emits (including all
//! shipped benchmarks at both input scales) passes both phases, and
//! corrupted programs are rejected — never verified, never a panic — with
//! structural defects caught when the program is built (phase 1, in the
//! `Program` constructor) and only operand-type defects left to
//! verification (phase 2).

use proptest::prelude::*;
use vmprobe_analysis::{verify_method, verify_program, VerifyError};
use vmprobe_bytecode::{ClassId, MathFn, MethodId, Op, Program, ProgramBuilder, Ty};
use vmprobe_workloads::{all_benchmarks, InputScale};

/// Every shipped benchmark, at both input scales, passes both phases.
/// These are the exact programs the golden energy figures run, so
/// load-time verification must wave all of them through.
#[test]
fn all_benchmarks_pass_the_dataflow_verifier() {
    for bench in all_benchmarks() {
        for scale in [InputScale::Full, InputScale::Reduced] {
            let program = bench.build(scale);
            let analysis = verify_program(&program);
            assert!(
                analysis.is_ok(),
                "{} @ {scale:?} rejected: {}",
                bench.name,
                analysis.unwrap_err()
            );
        }
    }
}

/// A known-good victim program for mutation: classes, statics, calls,
/// loops, floats and arrays, so most opcode kinds have a live context.
fn victim() -> Program {
    let mut p = ProgramBuilder::new();
    let cls = p
        .class("Victim")
        .field("x", Ty::Int)
        .field("f", Ty::Float)
        .build();
    let s = p.static_slot("acc", Ty::Int);
    let helper = p.method(cls, "helper", 1, 2, |b| {
        b.load(0).const_i(3).add().ret_value();
    });
    let main = p.method(cls, "main", 0, 4, move |b| {
        b.const_i(0).put_static(s);
        b.new_obj(cls).store(2);
        b.for_range(0, 0, 10, move |b| {
            b.load(0).call(helper).store(1);
            b.get_static(s).load(1).add().put_static(s);
        });
        b.const_f(2.0).math(MathFn::Sqrt).f2i().store(3);
        b.get_static(s).load(3).add().ret_value();
    });
    p.finish(main).expect("victim verifies")
}

/// A program rebuilt from its own bodies equals the original, stored
/// depth tables and join frames included: what the constructor keeps is
/// what a fresh walk gives.
#[test]
fn rebuilding_an_unmutated_body_gives_an_equal_program() {
    let program = victim();
    for m in program.methods() {
        let rebuilt = program.with_method_code(m.id(), m.code().to_vec());
        assert_eq!(rebuilt.as_ref(), Ok(&program), "{}", m.name());
    }
}

/// Targeted corruptions that reference out-of-range entities must always
/// be rejected, when the program is built or when it is verified — and
/// must never panic.
#[test]
fn out_of_range_ids_are_always_rejected() {
    let program = victim();
    let main = program.entry();
    let code = program.method(main).code().to_vec();
    let bad_ops: &[Op] = &[
        Op::Jump(10_000),
        Op::BrTrue(9_999),
        Op::BrFalse(u32::MAX),
        Op::Load(200),
        Op::Store(250),
        Op::Call(MethodId(4_000)),
        Op::New(ClassId(900)),
        Op::GetStatic(5_000),
        Op::PutStatic(5_000),
    ];
    for &bad in bad_ops {
        for pc in 0..code.len() {
            let mut mutated = code.clone();
            mutated[pc] = bad;
            let verdict = std::panic::catch_unwind(|| {
                verify_program(&program.with_method_code(main, mutated)?)
            });
            match verdict {
                Ok(Err(_)) => {}
                Ok(Ok(())) => panic!("{bad:?} at pc {pc} verified"),
                Err(_) => panic!("{bad:?} at pc {pc} panicked the verifier"),
            }
        }
    }
}

/// The merge-point regression from the old linear-era verifier: two
/// branches reaching one join with *different depths* must be rejected
/// by phase 1, when the program is built.
#[test]
fn depth_mismatch_at_join_is_structurally_rejected() {
    let program = victim();
    let main = program.entry();
    // then-branch pushes two values, else-branch pushes one; join pops one.
    let code = vec![
        Op::ConstI(1),
        Op::BrFalse(5),
        Op::ConstI(7),
        Op::ConstI(8),
        Op::Jump(6),
        Op::ConstI(9), // join predecessor with depth 1 vs 2
        Op::Pop,
        Op::RetV, // main returns a value
    ];
    assert_eq!(
        program.with_method_code(main, code),
        Err(VerifyError::StackDepthMismatch {
            method: main,
            pc: 6,
            expected: 2,
            found: 1,
        }),
        "phase 1 rejects it"
    );
}

/// An arbitrary single-opcode replacement drawn from the full ISA. Method,
/// class and static ids are drawn in range or past their table, up to
/// `u16::MAX` as a tenant's `@N` can name them. Such a mutation may
/// legitimately still verify (a `Nop` for a `Nop`, an `Add` for a `Sub`);
/// the property is that the verifier always *terminates with a verdict*
/// (it never panics) and that each phase gives only its own errors.
fn arb_op(
    code_len: usize,
    n_methods: u32,
    n_classes: u16,
    n_statics: u16,
) -> Box<dyn Strategy<Value = Op>> {
    let target = 0..(code_len as u32 + 2); // may dangle past the end
    prop_oneof![
        any::<i64>().prop_map(Op::ConstI),
        any::<f64>().prop_map(Op::ConstF),
        Just(Op::ConstNull),
        Just(Op::Dup),
        Just(Op::Pop),
        Just(Op::Swap),
        (0u8..8).prop_map(Op::Load),
        (0u8..8).prop_map(Op::Store),
        Just(Op::Add),
        Just(Op::FAdd),
        Just(Op::Lt),
        Just(Op::IsNull),
        target.clone().prop_map(Op::Jump),
        target.clone().prop_map(Op::BrTrue),
        target.prop_map(Op::BrFalse),
        prop_oneof![0..n_methods.max(1), n_methods..=u32::from(u16::MAX)]
            .prop_map(|m| Op::Call(MethodId(m))),
        Just(Op::Ret),
        Just(Op::RetV),
        prop_oneof![0..n_classes.max(1), n_classes..=u16::MAX].prop_map(|c| Op::New(ClassId(c))),
        (0u16..4).prop_map(Op::GetField),
        (0u16..4).prop_map(Op::PutField),
        prop_oneof![0..n_statics.max(1), n_statics..=u16::MAX].prop_map(Op::GetStatic),
        prop_oneof![0..n_statics.max(1), n_statics..=u16::MAX].prop_map(Op::PutStatic),
        Just(Op::ALoad),
        Just(Op::AStore),
        Just(Op::ArrLen),
        Just(Op::Nop),
    ]
    .boxed()
}

/// `(pc, replacement op)` pairs over the victim's entry method.
fn mutation_strategy() -> impl Strategy<Value = (usize, Op)> {
    let program = victim();
    let code_len = program.method(program.entry()).code().len();
    (
        0..code_len,
        arb_op(
            code_len,
            program.method_count() as u32,
            program.class_count() as u16,
            program.statics().len() as u16,
        ),
    )
}

proptest! {
    #[test]
    fn random_single_op_mutations_never_panic_the_verifier((pc, op) in mutation_strategy()) {
        let program = victim();
        let main = program.entry();
        let mut mutated = program.method(main).code().to_vec();
        mutated[pc] = op;
        // A random replacement may legitimately still verify (Nop for
        // Nop, Add for Sub); the property is that both steps always
        // terminate with a verdict and never panic …
        let verdicts = std::panic::catch_unwind(|| {
            program
                .with_method_code(main, mutated)
                .map(|corrupt| verify_method(&corrupt, main))
        });
        prop_assert!(verdicts.is_ok(), "verifier panicked on {:?} at pc {}", op, pc);
        let is_type_error =
            |e: &VerifyError| matches!(e, VerifyError::TypeConflict { .. } | VerifyError::UninitLocal { .. });
        // … and that building rejects only structure, verifying only types.
        match verdicts.unwrap() {
            Err(e) => prop_assert!(
                !is_type_error(&e),
                "building rejected {:?} at pc {} on a type: {}",
                op,
                pc,
                e
            ),
            Ok(Err(e)) => prop_assert!(
                is_type_error(&e),
                "verification rejected {:?} at pc {} on structure: {}",
                op,
                pc,
                e
            ),
            Ok(Ok(())) => {}
        }
    }
}

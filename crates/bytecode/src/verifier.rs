//! Structural bytecode verification — the *first tier* of the two-tier
//! verifier.
//!
//! Real JVM class loading verifies bytecode before execution; we model both
//! the function (catching malformed workload programs at build time) and —
//! in the runtime — its cost. This tier performs an abstract interpretation
//! of operand-stack *depth* over the control-flow graph and validates every
//! static index an instruction carries. It deliberately does not track
//! *types*: two paths meeting at a join with equal depths but incompatible
//! slot types pass here.
//!
//! The second tier lives in `vmprobe-analysis` (`verify_method` /
//! `verify_program`), which runs a worklist dataflow pass with a type
//! lattice per stack slot and local, and is merge-point-correct. That tier
//! *delegates to this one first* — structural errors (dangling branches,
//! bad indices, depth mismatches) are reported from here as the single
//! source of truth, and the dataflow pass only ever adds findings on top.
//! Callers wanting full verification (the VM class loader, the serve
//! daemon's admission check, `vmprobe-analyze`) go through
//! `vmprobe_analysis`; this module alone is the cheap build-time screen.

use std::error::Error;
use std::fmt;

use crate::{Method, MethodId, Op, Program};

/// Why a method failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A branch target is outside the method body.
    BranchOutOfRange {
        /// Offending method.
        method: MethodId,
        /// Instruction index of the branch.
        pc: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// A `Load`/`Store` refers to a local slot beyond the frame size.
    LocalOutOfRange {
        /// Offending method.
        method: MethodId,
        /// Instruction index.
        pc: u32,
        /// Referenced local slot.
        local: u8,
        /// Declared frame size.
        n_locals: u8,
    },
    /// An instruction pops more values than the stack holds on some path.
    StackUnderflow {
        /// Offending method.
        method: MethodId,
        /// Instruction index.
        pc: u32,
    },
    /// Two paths reach the same instruction with different stack depths.
    StackDepthMismatch {
        /// Offending method.
        method: MethodId,
        /// Join-point instruction index.
        pc: u32,
        /// Depth recorded first.
        expected: usize,
        /// Conflicting depth.
        found: usize,
    },
    /// Execution can run past the last instruction.
    FallsOffEnd {
        /// Offending method.
        method: MethodId,
    },
    /// Method body is empty.
    EmptyBody {
        /// Offending method.
        method: MethodId,
    },
    /// Mixes `Ret` and `RetV`, or a value-returning method uses bare `Ret`.
    InconsistentReturn {
        /// Offending method.
        method: MethodId,
        /// Instruction index of the offending return.
        pc: u32,
    },
    /// `Call` refers to a method id not present in the program.
    UnknownMethod {
        /// Offending method.
        method: MethodId,
        /// Instruction index.
        pc: u32,
    },
    /// `New` refers to a class id not present in the program.
    UnknownClass {
        /// Offending method.
        method: MethodId,
        /// Instruction index.
        pc: u32,
    },
    /// `GetStatic`/`PutStatic` refers to a slot that was never declared.
    UnknownStatic {
        /// Offending method.
        method: MethodId,
        /// Instruction index.
        pc: u32,
        /// Referenced slot.
        slot: u16,
    },
    /// A declared method was never given a body.
    UndefinedMethod {
        /// The method that has no body.
        method: MethodId,
    },
    /// The method declares more arguments than local slots to hold them.
    ArgsExceedLocals {
        /// Offending method.
        method: MethodId,
        /// Declared argument count.
        n_args: u8,
        /// Declared frame size.
        n_locals: u8,
    },
    /// Locals plus operand stack exceed the 65535 slots a frame can
    /// address (the class-file format's `max_locals`/`max_stack` bound).
    FrameTooLarge {
        /// Offending method.
        method: MethodId,
        /// Instruction index where the stack outgrows the frame.
        pc: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BranchOutOfRange { method, pc, target } => {
                write!(f, "branch target {target} out of range at {method}:{pc}")
            }
            VerifyError::LocalOutOfRange {
                method,
                pc,
                local,
                n_locals,
            } => write!(
                f,
                "local {local} out of range (frame has {n_locals}) at {method}:{pc}"
            ),
            VerifyError::StackUnderflow { method, pc } => {
                write!(f, "operand stack underflow at {method}:{pc}")
            }
            VerifyError::StackDepthMismatch {
                method,
                pc,
                expected,
                found,
            } => write!(
                f,
                "stack depth mismatch at join {method}:{pc} (expected {expected}, found {found})"
            ),
            VerifyError::FallsOffEnd { method } => {
                write!(f, "control flow falls off the end of {method}")
            }
            VerifyError::EmptyBody { method } => write!(f, "empty method body in {method}"),
            VerifyError::InconsistentReturn { method, pc } => {
                write!(f, "inconsistent return kind at {method}:{pc}")
            }
            VerifyError::UnknownMethod { method, pc } => {
                write!(f, "call to unknown method at {method}:{pc}")
            }
            VerifyError::UnknownClass { method, pc } => {
                write!(f, "new of unknown class at {method}:{pc}")
            }
            VerifyError::UnknownStatic { method, pc, slot } => {
                write!(f, "unknown static slot {slot} at {method}:{pc}")
            }
            VerifyError::UndefinedMethod { method } => {
                write!(f, "method {method} declared but never defined")
            }
            VerifyError::ArgsExceedLocals {
                method,
                n_args,
                n_locals,
            } => write!(
                f,
                "{method} takes {n_args} arguments but has only {n_locals} locals"
            ),
            VerifyError::FrameTooLarge { method, pc } => {
                write!(f, "frame exceeds 65535 slots at {method}:{pc}")
            }
        }
    }
}

impl Error for VerifyError {}

/// Verify a single method against its program.
///
/// # Errors
///
/// See [`VerifyError`] for every condition checked.
pub fn verify_method(program: &Program, method: &Method) -> Result<(), VerifyError> {
    stack_depths(program, method).map(|_| ())
}

/// Verify a single method and return its operand-stack depth table:
/// entry `pc` is the one static depth every path reaches `pc` with, or
/// `None` when `pc` is unreachable. Locals plus any recorded depth fit in
/// a `u16` frame slot index.
///
/// # Errors
///
/// As [`verify_method`].
pub fn stack_depths(program: &Program, method: &Method) -> Result<Vec<Option<u16>>, VerifyError> {
    let id = method.id();
    let code = method.code();
    if code.is_empty() {
        return Err(VerifyError::EmptyBody { method: id });
    }
    if method.n_args() > method.n_locals() {
        return Err(VerifyError::ArgsExceedLocals {
            method: id,
            n_args: method.n_args(),
            n_locals: method.n_locals(),
        });
    }
    let max_depth = u16::MAX - u16::from(method.n_locals());

    // Per-instruction stack depth, None = not yet visited.
    let mut depth_at: Vec<Option<u16>> = vec![None; code.len()];
    let mut worklist: Vec<(u32, u16)> = vec![(0, 0)];

    while let Some((pc, depth)) = worklist.pop() {
        let idx = pc as usize;
        match depth_at[idx] {
            Some(d) if d == depth => continue,
            Some(d) => {
                return Err(VerifyError::StackDepthMismatch {
                    method: id,
                    pc,
                    expected: d.into(),
                    found: depth.into(),
                })
            }
            None => depth_at[idx] = Some(depth),
        }

        let op = &code[idx];
        // Static index validation.
        match op {
            Op::Load(n) | Op::Store(n) if *n >= method.n_locals() => {
                return Err(VerifyError::LocalOutOfRange {
                    method: id,
                    pc,
                    local: *n,
                    n_locals: method.n_locals(),
                });
            }
            Op::Call(m) if m.0 as usize >= program.methods().len() => {
                return Err(VerifyError::UnknownMethod { method: id, pc });
            }
            Op::New(c) if c.0 as usize >= program.classes().len() => {
                return Err(VerifyError::UnknownClass { method: id, pc });
            }
            Op::GetStatic(s) | Op::PutStatic(s) if *s as usize >= program.statics().len() => {
                return Err(VerifyError::UnknownStatic {
                    method: id,
                    pc,
                    slot: *s,
                });
            }
            Op::Ret if method.returns_value() => {
                return Err(VerifyError::InconsistentReturn { method: id, pc });
            }
            Op::RetV if !method.returns_value() => {
                return Err(VerifyError::InconsistentReturn { method: id, pc });
            }
            _ => {}
        }

        // Stack effect.
        let (pops, pushes) = match op {
            Op::Call(m) => {
                let callee = program.method(*m);
                (
                    callee.n_args() as usize,
                    usize::from(callee.returns_value()),
                )
            }
            _ => (op.pops(), op.pushes()),
        };
        let depth = usize::from(depth);
        if pops > depth {
            return Err(VerifyError::StackUnderflow { method: id, pc });
        }
        let next_depth = u16::try_from(depth - pops + pushes)
            .ok()
            .filter(|d| *d <= max_depth)
            .ok_or(VerifyError::FrameTooLarge { method: id, pc })?;

        // Successors.
        if let Some(target) = op.branch_target() {
            if target as usize >= code.len() {
                return Err(VerifyError::BranchOutOfRange {
                    method: id,
                    pc,
                    target,
                });
            }
            worklist.push((target, next_depth));
        }
        if !op.is_terminator() {
            if idx + 1 >= code.len() {
                return Err(VerifyError::FallsOffEnd { method: id });
            }
            worklist.push((pc + 1, next_depth));
        }
    }

    Ok(depth_at)
}

/// Verify every method in a program.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered, in method-id order.
pub fn verify_program(program: &Program) -> Result<(), VerifyError> {
    for m in program.methods() {
        verify_method(program, m)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProgramBuilder, Ty};

    fn single(f: impl FnOnce(&mut crate::MethodBuilder)) -> Result<Program, VerifyError> {
        let mut p = ProgramBuilder::new();
        let m = p.function("t", 1, 1, f);
        p.finish(m)
    }

    #[test]
    fn accepts_straightline_code() {
        assert!(single(|b| {
            b.load(0).const_i(2).mul().ret_value();
        })
        .is_ok());
    }

    #[test]
    fn rejects_underflow() {
        assert!(matches!(
            single(|b| {
                b.add().ret();
            }),
            Err(VerifyError::StackUnderflow { .. })
        ));
    }

    #[test]
    fn rejects_local_out_of_range() {
        assert!(matches!(
            single(|b| {
                b.load(9).ret();
            }),
            Err(VerifyError::LocalOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_fall_off_end() {
        assert!(matches!(
            single(|b| {
                b.const_i(1).pop();
            }),
            Err(VerifyError::FallsOffEnd { .. })
        ));
    }

    #[test]
    fn rejects_depth_mismatch_at_join() {
        // One arm leaves an extra value on the stack.
        assert!(matches!(
            single(|b| {
                let els = b.label();
                let end = b.label();
                b.load(0).br_false(els);
                b.const_i(1).const_i(2);
                b.jump(end);
                b.bind(els);
                b.const_i(1);
                b.bind(end);
                b.pop().ret();
            }),
            Err(VerifyError::StackDepthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_unknown_static() {
        assert!(matches!(
            single(|b| {
                b.get_static(3).pop().ret();
            }),
            Err(VerifyError::UnknownStatic { slot: 3, .. })
        ));
    }

    #[test]
    fn accepts_known_static() {
        let mut p = ProgramBuilder::new();
        let s = p.static_slot("counter", Ty::Int);
        let m = p.function("t", 0, 0, |b| {
            b.get_static(s).const_i(1).add().put_static(s).ret();
        });
        assert!(p.finish(m).is_ok());
    }

    #[test]
    fn rejects_empty_body() {
        assert!(matches!(single(|_| {}), Err(VerifyError::EmptyBody { .. })));
    }

    #[test]
    fn call_stack_effect_uses_callee_signature() {
        let mut p = ProgramBuilder::new();
        let cls = p.class("C").build();
        let callee = p.method(cls, "twice", 1, 0, |b| {
            b.load(0).const_i(2).mul().ret_value();
        });
        let main = p.method(cls, "main", 0, 0, |b| {
            b.const_i(21).call(callee).ret_value();
        });
        assert!(p.finish(main).is_ok());
    }

    #[test]
    fn depth_table_records_one_depth_per_reachable_pc() {
        let prog =
            crate::assemble(".method main 0 1\n const_i 1\n pop\n ret\n nop\n ret\n").unwrap();
        let depths = stack_depths(&prog, prog.method(prog.entry())).unwrap();
        assert_eq!(depths, vec![Some(0), Some(1), Some(0), None, None]);
    }

    #[test]
    fn rejects_more_arguments_than_locals() {
        let prog = crate::assemble(".method main 0 1\n ret\n.method f 2 1\n ret\n").unwrap();
        assert!(matches!(
            verify_program(&prog),
            Err(VerifyError::ArgsExceedLocals {
                n_args: 2,
                n_locals: 1,
                ..
            })
        ));
    }

    #[test]
    fn rejects_frames_beyond_u16_slots() {
        let mut p = ProgramBuilder::new();
        let m = p.function("t", 0, 255, |b| {
            for _ in 0..=(u16::MAX - 255) {
                b.const_i(0);
            }
            b.ret();
        });
        assert!(matches!(
            p.finish(m),
            Err(VerifyError::FrameTooLarge { pc: 65280, .. })
        ));
    }

    #[test]
    fn error_messages_are_nonempty_and_lowercase_ish() {
        let e = VerifyError::EmptyBody {
            method: MethodId(7),
        };
        let msg = format!("{e}");
        assert!(msg.contains("M7"));
        assert!(!msg.is_empty());
    }
}

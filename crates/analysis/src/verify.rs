//! Merge-point-correct bytecode verification by abstract interpretation.
//!
//! The structural verifier in `vmprobe_bytecode` checks branch ranges,
//! stack depths and signature consistency with a worklist over `(pc,
//! depth)` pairs; it knows nothing about *types*. This module runs a
//! second, stricter tier: a worklist dataflow pass over each method's
//! [`Cfg`] with an abstract type per stack slot and per local, so two
//! branches that reach one merge point with the same depth but
//! *incompatible* types are caught before the program runs.
//!
//! # The lattice
//!
//! ```text
//!            Uninit            (possibly-uninitialized local)
//!               |
//!            Conflict          (incompatible types merged)
//!            /  |  \
//!         Int Float Ref        (precise)
//!            \  |  /
//!            Unknown           (no static type information)
//! ```
//!
//! [`AbsTy::Unknown`] is the bottom element (a call result, heap load,
//! or argument — no static claim, so it joins as the identity); the join
//! of two *distinct* precise types is [`AbsTy::Conflict`]; `Conflict`
//! and [`AbsTy::Uninit`] absorb upward. Join is the least upper bound of
//! this genuine lattice (height 3), so it is associative and merge-order
//! independent; each transfer function only moves states up, so the
//! worklist pass terminates.
//!
//! The pass runs in two phases: propagate frames to the fixpoint without
//! judging operand types, then check every reachable instruction against
//! its *final* in-state. Checking only at the fixpoint means a merge
//! point reports the merged type (`conflict`), not whichever branch the
//! worklist happened to visit first.
//!
//! # Severity policy
//!
//! The VM's [`Value`](../../vmprobe_vm/enum.Value.html) coercions are
//! *total* — type confusion can never crash the interpreter, it only
//! produces well-defined garbage. Verification failures here are
//! therefore a deliberate stricter static tier, not a soundness
//! requirement of the interpreter:
//!
//! * consuming a `Conflict` value in a typed operation (ALU, FP, field
//!   access, call argument, return value) — **rejected**: the program's
//!   meaning depends on which branch ran, which is exactly the bug class
//!   merge-point verification exists to catch;
//! * reading a local no path has written ([`AbsTy::Uninit`]) in a typed
//!   operation — **rejected** (dynamically it reads `I(0)`, but no
//!   generated or hand-written workload does this on purpose);
//! * unreachable instructions — **reported** as a diagnostic on the
//!   [`MethodAnalysis`], never a rejection (dead code is wasteful, not
//!   wrong).

use std::fmt;

use vmprobe_bytecode::{ClassId, Method, MethodId, Op, Program, Ty, VerifyError};

use crate::cfg::Cfg;

/// Abstract type of one stack slot or local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsTy {
    /// Definitely an integer.
    Int,
    /// Definitely a float.
    Float,
    /// Definitely a reference (null included).
    Ref,
    /// Some initialized value of statically unknowable type (a call
    /// result, a heap load, a method argument). Bottom of the lattice:
    /// it carries no claim, so joining it with anything is the identity.
    Unknown,
    /// Incompatible precise types merged at a join point; using this in
    /// a typed operation is a verification error.
    Conflict,
    /// A local no path has initialized yet.
    Uninit,
}

impl AbsTy {
    /// Least upper bound of two abstract types.
    pub fn join(self, other: AbsTy) -> AbsTy {
        use AbsTy::{Conflict, Uninit, Unknown};
        match (self, other) {
            (a, b) if a == b => a,
            (Uninit, _) | (_, Uninit) => Uninit,
            (Conflict, _) | (_, Conflict) => Conflict,
            // Unknown carries no claim: identity.
            (Unknown, x) | (x, Unknown) => x,
            // Two distinct precise types.
            _ => Conflict,
        }
    }

    /// The abstract type of a declared [`Ty`].
    pub fn of(ty: Ty) -> AbsTy {
        match ty {
            Ty::Int => AbsTy::Int,
            Ty::Float => AbsTy::Float,
            Ty::Ref => AbsTy::Ref,
        }
    }

    fn label(self) -> &'static str {
        match self {
            AbsTy::Int => "int",
            AbsTy::Float => "float",
            AbsTy::Ref => "ref",
            AbsTy::Unknown => "unknown",
            AbsTy::Conflict => "conflict",
            AbsTy::Uninit => "uninit",
        }
    }
}

impl fmt::Display for AbsTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a consuming operation will accept.
#[derive(Debug, Clone, Copy)]
enum Want {
    /// `{Int, Unknown}` — integer ALU, shift counts, branch conditions,
    /// array indices and lengths.
    Int,
    /// `{Float, Unknown}` — FP ALU and math intrinsics.
    Float,
    /// `{Ref, Unknown}` — field/array base objects.
    Ref,
    /// Any initialized, unconflicted value — comparison operands, stored
    /// values, call arguments, returned values.
    Value,
    /// Anything at all, `Conflict` included — pure stack movement
    /// (`Pop`, `Dup`, `Swap`, `Store`). The VM moves these as raw words;
    /// only a *typed* use of a conflicted value is an error.
    Move,
    /// Exactly this declared static type (or `Unknown`).
    Decl(AbsTy),
}

impl Want {
    fn accepts(self, t: AbsTy) -> bool {
        match self {
            Want::Int => matches!(t, AbsTy::Int | AbsTy::Unknown),
            Want::Float => matches!(t, AbsTy::Float | AbsTy::Unknown),
            Want::Ref => matches!(t, AbsTy::Ref | AbsTy::Unknown),
            Want::Value => !matches!(t, AbsTy::Conflict | AbsTy::Uninit),
            Want::Move => true,
            Want::Decl(d) => t == d || t == AbsTy::Unknown,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Want::Int => "int",
            Want::Float => "float",
            Want::Ref => "ref",
            Want::Value => "initialized value",
            Want::Move => "any",
            Want::Decl(AbsTy::Int) => "int (declared)",
            Want::Decl(AbsTy::Float) => "float (declared)",
            Want::Decl(_) => "ref (declared)",
        }
    }
}

/// Why the dataflow verifier rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The structural tier already rejected it (branch ranges, stack
    /// depths, signatures); the dataflow pass never ran.
    Structural(VerifyError),
    /// A typed operation consumed a value of the wrong abstract type —
    /// including a `conflict` produced by merging incompatible branches.
    TypeConflict {
        /// The offending method.
        method: MethodId,
        /// Instruction index.
        pc: u32,
        /// What the operation accepts.
        wanted: &'static str,
        /// What the abstract stack held.
        found: AbsTy,
    },
    /// A typed operation read a local that no path to it has written.
    UninitLocal {
        /// The offending method.
        method: MethodId,
        /// Instruction index of the read.
        pc: u32,
        /// The local slot.
        local: u8,
    },
    /// Two predecessors reached a merge point with different stack
    /// depths. The structural tier catches this first; kept so the
    /// dataflow pass is self-contained when called on raw bodies.
    ShapeMismatch {
        /// The offending method.
        method: MethodId,
        /// First instruction of the merge block.
        pc: u32,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Structural(e) => write!(f, "structural: {e}"),
            AnalysisError::TypeConflict {
                method,
                pc,
                wanted,
                found,
            } => write!(
                f,
                "{method} pc {pc}: operand type mismatch (wanted {wanted}, found {found})"
            ),
            AnalysisError::UninitLocal { method, pc, local } => write!(
                f,
                "{method} pc {pc}: read of possibly-uninitialized local {local}"
            ),
            AnalysisError::ShapeMismatch { method, pc } => {
                write!(f, "{method} pc {pc}: stack depth disagrees at merge point")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<VerifyError> for AnalysisError {
    fn from(e: VerifyError) -> Self {
        AnalysisError::Structural(e)
    }
}

/// Per-method facts the dataflow pass produced alongside the verdict.
#[derive(Debug, Clone)]
pub struct MethodAnalysis {
    /// The analyzed method.
    pub method: MethodId,
    /// Number of basic blocks in the CFG.
    pub blocks: usize,
    /// Whether the CFG contains a reachable cycle.
    pub cyclic: bool,
    /// Instruction indices of unreachable code (diagnostic only).
    pub unreachable_pcs: Vec<u32>,
}

/// Program-wide result of the dataflow tier.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// One entry per method, in method-id order.
    pub methods: Vec<MethodAnalysis>,
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    stack: Vec<AbsTy>,
    locals: Vec<AbsTy>,
}

impl Frame {
    fn entry(method: &Method) -> Self {
        let n_args = method.n_args() as usize;
        let n_locals = method.n_locals() as usize;
        let mut locals = vec![AbsTy::Uninit; n_locals];
        for slot in locals.iter_mut().take(n_args) {
            *slot = AbsTy::Unknown;
        }
        Self {
            stack: Vec::new(),
            locals,
        }
    }

    /// Join `other` into `self`; `Ok(true)` when anything changed.
    fn merge(&mut self, other: &Frame) -> Result<bool, ()> {
        if self.stack.len() != other.stack.len() {
            return Err(());
        }
        let mut changed = false;
        for (a, b) in self
            .stack
            .iter_mut()
            .zip(&other.stack)
            .chain(self.locals.iter_mut().zip(&other.locals))
        {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        Ok(changed)
    }
}

/// Verify one method through both tiers: structural first (delegated to
/// [`vmprobe_bytecode::verify_method`]), then the dataflow pass.
///
/// # Errors
///
/// [`AnalysisError::Structural`] wrapping the first structural defect, or
/// a typed dataflow rejection ([`AnalysisError::TypeConflict`],
/// [`AnalysisError::UninitLocal`], [`AnalysisError::ShapeMismatch`]).
pub fn verify_method(program: &Program, id: MethodId) -> Result<MethodAnalysis, AnalysisError> {
    let method = program.method(id);
    vmprobe_bytecode::verify_method(program, method)?;
    let cfg = Cfg::new(method);
    let (cyclic, _) = cfg.cycle_and_order();

    let n_blocks = cfg.blocks().len();
    let mut in_states: Vec<Option<Frame>> = vec![None; n_blocks];
    in_states[0] = Some(Frame::entry(method));
    let mut worklist = vec![0usize];
    let mut queued = vec![false; n_blocks];
    queued[0] = true;

    // Phase 1: propagate frames to the fixpoint. Operand types are not
    // judged here — a block visited early would otherwise be checked
    // against a partial (pre-merge) state.
    while let Some(b) = worklist.pop() {
        queued[b] = false;
        let mut state = in_states[b].clone().expect("queued block has a state");
        let block = &cfg.blocks()[b];
        for pc in block.range() {
            transfer(program, method, pc, &mut state, false)?;
        }
        for &s in &block.succs {
            let start = cfg.blocks()[s].start as u32;
            let changed = match &mut in_states[s] {
                Some(existing) => {
                    existing
                        .merge(&state)
                        .map_err(|()| AnalysisError::ShapeMismatch {
                            method: id,
                            pc: start,
                        })?
                }
                slot @ None => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed && !queued[s] {
                queued[s] = true;
                worklist.push(s);
            }
        }
    }

    // Phase 2: check every reachable instruction against its final
    // in-state, so merge points are judged on the merged types.
    for (b, in_state) in in_states.iter().enumerate() {
        let Some(in_state) = in_state else { continue };
        let mut state = in_state.clone();
        for pc in cfg.blocks()[b].range() {
            transfer(program, method, pc, &mut state, true)?;
        }
    }

    let reachable = cfg.reachable();
    let mut unreachable_pcs = Vec::new();
    for (i, block) in cfg.blocks().iter().enumerate() {
        if !reachable[i] {
            unreachable_pcs.extend(block.range().map(|pc| pc as u32));
        }
    }

    Ok(MethodAnalysis {
        method: id,
        blocks: n_blocks,
        cyclic,
        unreachable_pcs,
    })
}

/// Verify every method of one class (the load-time granularity).
///
/// # Errors
///
/// The first failing method's error (see [`verify_method`]).
pub fn verify_class(program: &Program, id: ClassId) -> Result<(), AnalysisError> {
    for &m in program.class(id).methods() {
        verify_method(program, m)?;
    }
    Ok(())
}

/// Verify every method of the program.
///
/// # Errors
///
/// The first failing method's error (see [`verify_method`]).
pub fn verify_program(program: &Program) -> Result<ProgramAnalysis, AnalysisError> {
    let mut methods = Vec::with_capacity(program.method_count());
    for m in program.methods() {
        methods.push(verify_method(program, m.id())?);
    }
    Ok(ProgramAnalysis { methods })
}

/// Pop one operand; judge it against `want` only when `check` is set
/// (phase 2 — phase 1 merely propagates shapes).
fn pop(
    state: &mut Frame,
    method: MethodId,
    pc: usize,
    want: Want,
    check: bool,
) -> Result<AbsTy, AnalysisError> {
    // Structural verification already proved depths, so underflow here
    // would be a bug in this module, not in the input.
    let t = state.stack.pop().expect("structurally verified depth");
    if !check || want.accepts(t) {
        Ok(t)
    } else {
        Err(AnalysisError::TypeConflict {
            method,
            pc: pc as u32,
            wanted: want.label(),
            found: t,
        })
    }
}

/// Abstractly execute one instruction. With `check` unset this is the
/// pure transfer function (propagation); with it set, operand types are
/// judged and violations are returned.
fn transfer(
    program: &Program,
    method: &Method,
    pc: usize,
    state: &mut Frame,
    check: bool,
) -> Result<(), AnalysisError> {
    let id = method.id();
    let op = method.code()[pc];
    match op {
        Op::ConstI(_) => state.stack.push(AbsTy::Int),
        Op::ConstF(_) => state.stack.push(AbsTy::Float),
        Op::ConstNull => state.stack.push(AbsTy::Ref),
        Op::Dup => {
            let t = *state.stack.last().expect("structurally verified depth");
            state.stack.push(t);
        }
        Op::Pop => {
            pop(state, id, pc, Want::Move, check)?;
        }
        Op::Swap => {
            let n = state.stack.len();
            state.stack.swap(n - 1, n - 2);
        }
        Op::Load(n) => {
            let t = state.locals[n as usize];
            if check && t == AbsTy::Uninit {
                return Err(AnalysisError::UninitLocal {
                    method: id,
                    pc: pc as u32,
                    local: n,
                });
            }
            state.stack.push(t);
        }
        Op::Store(n) => {
            let t = pop(state, id, pc, Want::Move, check)?;
            state.locals[n as usize] = t;
        }

        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::Shl
        | Op::Shr
        | Op::And
        | Op::Or
        | Op::Xor => {
            pop(state, id, pc, Want::Int, check)?;
            pop(state, id, pc, Want::Int, check)?;
            state.stack.push(AbsTy::Int);
        }
        Op::Neg => {
            pop(state, id, pc, Want::Int, check)?;
            state.stack.push(AbsTy::Int);
        }
        Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => {
            pop(state, id, pc, Want::Float, check)?;
            pop(state, id, pc, Want::Float, check)?;
            state.stack.push(AbsTy::Float);
        }
        Op::FNeg | Op::Math(_) => {
            pop(state, id, pc, Want::Float, check)?;
            state.stack.push(AbsTy::Float);
        }
        Op::I2F => {
            pop(state, id, pc, Want::Int, check)?;
            state.stack.push(AbsTy::Float);
        }
        Op::F2I => {
            pop(state, id, pc, Want::Float, check)?;
            state.stack.push(AbsTy::Int);
        }

        Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::Eq | Op::Ne => {
            // The interpreter compares any mix of types through total
            // coercions, so both operands only need to be initialized
            // and unconflicted.
            pop(state, id, pc, Want::Value, check)?;
            pop(state, id, pc, Want::Value, check)?;
            state.stack.push(AbsTy::Int);
        }
        Op::IsNull => {
            pop(state, id, pc, Want::Value, check)?;
            state.stack.push(AbsTy::Int);
        }

        Op::Jump(_) => {}
        Op::BrTrue(_) | Op::BrFalse(_) => {
            pop(state, id, pc, Want::Int, check)?;
        }
        Op::Call(callee) => {
            let sig = program.method(callee);
            for _ in 0..sig.n_args() {
                pop(state, id, pc, Want::Value, check)?;
            }
            if sig.returns_value() {
                state.stack.push(AbsTy::Unknown);
            }
        }
        Op::Ret => {}
        Op::RetV => {
            pop(state, id, pc, Want::Value, check)?;
        }

        Op::New(_) => state.stack.push(AbsTy::Ref),
        Op::NewArr(_) => {
            pop(state, id, pc, Want::Int, check)?;
            state.stack.push(AbsTy::Ref);
        }
        Op::GetField(_) => {
            pop(state, id, pc, Want::Ref, check)?;
            // The receiver's runtime class — and with it the field's
            // type — is not statically known.
            state.stack.push(AbsTy::Unknown);
        }
        Op::PutField(_) => {
            pop(state, id, pc, Want::Value, check)?; // value
            pop(state, id, pc, Want::Ref, check)?; // object
        }
        Op::GetStatic(s) => {
            state
                .stack
                .push(AbsTy::of(program.statics()[s as usize].ty()));
        }
        Op::PutStatic(s) => {
            let decl = AbsTy::of(program.statics()[s as usize].ty());
            pop(state, id, pc, Want::Decl(decl), check)?;
        }
        Op::ALoad => {
            pop(state, id, pc, Want::Int, check)?; // index
            pop(state, id, pc, Want::Ref, check)?; // array
            state.stack.push(AbsTy::Unknown);
        }
        Op::AStore => {
            pop(state, id, pc, Want::Value, check)?; // value
            pop(state, id, pc, Want::Int, check)?; // index
            pop(state, id, pc, Want::Ref, check)?; // array
        }
        Op::ArrLen => {
            pop(state, id, pc, Want::Ref, check)?;
            state.stack.push(AbsTy::Int);
        }
        Op::Nop => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_bytecode::ProgramBuilder;

    #[test]
    fn join_is_commutative_idempotent_and_absorbing() {
        use AbsTy::*;
        let all = [Int, Float, Ref, Unknown, Conflict, Uninit];
        for &a in &all {
            assert_eq!(a.join(a), a, "idempotent {a}");
            for &b in &all {
                assert_eq!(a.join(b), b.join(a), "commutative {a} {b}");
                // Associativity over the small carrier.
                for &c in &all {
                    assert_eq!(a.join(b).join(c), a.join(b.join(c)), "assoc {a} {b} {c}");
                }
            }
            assert_eq!(a.join(Uninit), Uninit);
            assert!(matches!(a.join(Conflict), Conflict | Uninit));
        }
        assert_eq!(Int.join(Float), Conflict);
        assert_eq!(Int.join(Ref), Conflict);
        assert_eq!(Float.join(Ref), Conflict);
        // Unknown is bottom: identity under join.
        assert_eq!(Int.join(Unknown), Int);
        assert_eq!(Conflict.join(Unknown), Conflict);
    }

    #[test]
    fn straight_line_program_verifies() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 2, |b| {
            b.const_i(40).store(0).load(0).const_i(2).add().ret_value();
        });
        let prog = p.finish(main).unwrap();
        let a = verify_program(&prog).unwrap();
        assert_eq!(a.methods.len(), 1);
        assert!(!a.methods[0].cyclic);
        assert!(a.methods[0].unreachable_pcs.is_empty());
    }

    #[test]
    fn merge_of_int_and_float_rejected_only_at_typed_use() {
        // Two branches reach the join with the SAME depth but Int on one
        // path and Float on the other; the structural verifier accepts
        // this. Merely popping the merged value is fine …
        let mut p = ProgramBuilder::new();
        let benign = p.function("benign", 0, 0, |b| {
            b.const_i(1);
            b.if_else(
                |b| {
                    b.const_i(7);
                },
                |b| {
                    b.const_f(7.0);
                },
            );
            b.pop().ret();
        });
        let prog = p.finish(benign).unwrap();
        vmprobe_bytecode::verify_program(&prog).expect("structural tier accepts");
        verify_program(&prog).expect("untyped use of a merged value is fine");

        // … but feeding it to an integer op is the merge-point bug.
        let mut p = ProgramBuilder::new();
        let bad = p.function("bad", 0, 0, |b| {
            b.const_i(1);
            b.if_else(
                |b| {
                    b.const_i(7);
                },
                |b| {
                    b.const_f(7.0);
                },
            );
            b.const_i(1).add().ret_value();
        });
        let prog = p.finish(bad);
        // The builder's own gate is the structural tier, which accepts it.
        let prog = prog.expect("structural tier accepts the merge-point bug");
        let err = verify_program(&prog).unwrap_err();
        assert!(
            matches!(
                err,
                AnalysisError::TypeConflict {
                    found: AbsTy::Conflict,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn uninitialized_local_read_is_rejected() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 1, |b| {
            b.load(0).ret_value();
        });
        let prog = p.finish(main).expect("structural tier accepts");
        let err = verify_program(&prog).unwrap_err();
        assert!(
            matches!(err, AnalysisError::UninitLocal { local: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn one_sided_initialization_is_uninit_at_the_join() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 1, 1, |b| {
            b.load(0);
            b.if_then(|b| {
                b.const_i(5).store(1);
            });
            b.load(1).ret_value();
        });
        let prog = p.finish(main).expect("structural tier accepts");
        let err = verify_program(&prog).unwrap_err();
        assert!(matches!(err, AnalysisError::UninitLocal { local: 1, .. }));
    }

    #[test]
    fn arguments_are_initialized() {
        let mut p = ProgramBuilder::new();
        let callee = p.function("callee", 2, 0, |b| {
            b.load(0).load(1).add().ret_value();
        });
        let main = p.function("main", 0, 0, |b| {
            b.const_i(1).const_i(2).call(callee).ret_value();
        });
        let prog = p.finish(main).unwrap();
        verify_program(&prog).unwrap();
    }

    #[test]
    fn float_op_on_int_rejected() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 0, |b| {
            b.const_i(1).const_i(2).fadd().ret_value();
        });
        let prog = p.finish(main).expect("structural tier accepts");
        let err = verify_program(&prog).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::TypeConflict {
                found: AbsTy::Int,
                ..
            }
        ));
    }

    #[test]
    fn static_types_flow_through() {
        let mut p = ProgramBuilder::new();
        let s = p.static_slot("acc", Ty::Float);
        let main = p.function("main", 0, 0, |b| {
            b.const_f(1.0).put_static(s);
            b.get_static(s).const_f(2.0).fadd().pop().ret();
        });
        let prog = p.finish(main).unwrap();
        verify_program(&prog).unwrap();

        // Storing an int into the float static is rejected.
        let mut p = ProgramBuilder::new();
        let s = p.static_slot("acc", Ty::Float);
        let main = p.function("main", 0, 0, |b| {
            b.const_i(1).put_static(s).ret();
        });
        let prog = p.finish(main).expect("structural tier accepts");
        assert!(verify_program(&prog).is_err());
    }

    #[test]
    fn loops_verify_and_are_marked_cyclic() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 100, |b| {
                b.load(0).load(1).add().store(0);
            });
            b.load(0).ret_value();
        });
        let prog = p.finish(main).unwrap();
        let a = verify_program(&prog).unwrap();
        assert!(a.methods[0].cyclic);
    }

    #[test]
    fn structural_errors_are_wrapped() {
        // An empty builder cannot even produce such a program; drive the
        // structural tier through the analysis entry point on a valid
        // program to confirm the passthrough shape instead.
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 0, |b| {
            b.ret();
        });
        let prog = p.finish(main).unwrap();
        assert!(verify_method(&prog, main).is_ok());
    }
}

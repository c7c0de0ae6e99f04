//! Bytecode verification: one typed worklist, run in two phases.
//!
//! Real JVM class loading verifies bytecode before execution; we model both
//! the function (catching malformed programs before they run) and, in the
//! runtime, its cost. As in the JVM's type-checking verifier (JVM spec
//! §4.10.1), the operand stack's shape lives inside the type state: one
//! abstract interpretation carries a typed frame, an abstract type per
//! local and per stack slot, and the frame's stack length *is* the
//! operand-stack depth.
//!
//! **Phase 1** is one worklist over the method's pcs. At every
//! instruction it reaches it checks the static operands (branch targets;
//! local, method, class and static indices; the return kind), stack
//! underflow and the 65535-slot frame bound, and it moves the typed frame
//! to the instruction's successors. Paths meet only at the entry and at
//! branch targets: there the incoming frames are joined, and two different
//! depths are an error. Elsewhere the frame is carried in place. The
//! worklist is a stack of `(join pc, frame)` edges; a fall-through edge is
//! walked at once and a branch edge after it, so diagnostics come in the
//! order of a depth-first walk. Phase 1 judges no operand type and stops
//! at the fixpoint, with the depth table and the merged frame at every
//! join.
//!
//! **Phase 2** judges every reachable instruction's operand types against
//! its *final* in-state, in one linear pass in pc order, so a merge point
//! reports the merged type (`conflict`), not whichever branch the
//! worklist happened to walk first.
//!
//! Phase 1 runs once per method, in the one [`Program`] constructor, which
//! keeps its result: lowering reads the depth table
//! ([`Program::stack_depths`]), and phase 2 ([`verify_class`],
//! [`verify_program`]) the joins.
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
//! or argument: no static claim, so it joins as the identity); the join
//! of two *distinct* precise types is [`AbsTy::Conflict`]; `Conflict`
//! and [`AbsTy::Uninit`] absorb upward. Join is the least upper bound of
//! this lattice (height 3), so it is associative and merge-order
//! independent; each transfer only moves states up, so the worklist
//! terminates.
//!
//! # Severity policy
//!
//! The VM's value coercions are *total*: type confusion can never crash
//! the interpreter, it only produces well-defined garbage. Phase 2 is
//! therefore a deliberately strict static check, not a soundness
//! requirement of the interpreter:
//!
//! * consuming a `Conflict` value in a typed operation (ALU, FP, field
//!   access, call argument, return value) is **rejected**: the program's
//!   meaning depends on which branch ran, which is exactly the bug class
//!   merge-point verification exists to catch;
//! * reading a local no path has written ([`AbsTy::Uninit`]) in a typed
//!   operation is **rejected** (dynamically it reads `I(0)`, but no
//!   generated or hand-written workload does this on purpose);
//! * unreachable instructions are accepted (dead code is wasteful, not
//!   wrong); their depth-table entries are `None`.
//!

use std::error::Error;
use std::fmt;

use crate::{ClassId, Method, MethodId, Op, Program, Ty};

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
    /// `{Int, Unknown}`: integer ALU, shift counts, branch conditions,
    /// array indices and lengths.
    Int,
    /// `{Float, Unknown}`: FP ALU and math intrinsics.
    Float,
    /// `{Ref, Unknown}`: field/array base objects.
    Ref,
    /// Any initialized, unconflicted value: comparison operands, stored
    /// values, call arguments, returned values.
    Value,
    /// Anything at all, `Conflict` included: pure stack movement (`Pop`,
    /// `Dup`, `Swap`, `Store`). The VM moves these as raw words; only a
    /// *typed* use of a conflicted value is an error.
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
    /// A typed operation consumed a value of the wrong abstract type,
    /// including a `conflict` produced by merging incompatible branches.
    TypeConflict {
        /// Offending method.
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
        /// Offending method.
        method: MethodId,
        /// Instruction index of the read.
        pc: u32,
        /// The local slot.
        local: u8,
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
            VerifyError::TypeConflict {
                method,
                pc,
                wanted,
                found,
            } => write!(
                f,
                "{method} pc {pc}: operand type mismatch (wanted {wanted}, found {found})"
            ),
            VerifyError::UninitLocal { method, pc, local } => write!(
                f,
                "{method} pc {pc}: read of possibly-uninitialized local {local}"
            ),
        }
    }
}

impl Error for VerifyError {}

impl VerifyError {
    /// The method the error is in.
    pub(crate) fn method(&self) -> MethodId {
        match *self {
            VerifyError::BranchOutOfRange { method, .. }
            | VerifyError::LocalOutOfRange { method, .. }
            | VerifyError::StackUnderflow { method, .. }
            | VerifyError::StackDepthMismatch { method, .. }
            | VerifyError::FallsOffEnd { method }
            | VerifyError::EmptyBody { method }
            | VerifyError::InconsistentReturn { method, .. }
            | VerifyError::UnknownMethod { method, .. }
            | VerifyError::UnknownClass { method, .. }
            | VerifyError::UnknownStatic { method, .. }
            | VerifyError::UndefinedMethod { method }
            | VerifyError::ArgsExceedLocals { method, .. }
            | VerifyError::FrameTooLarge { method, .. }
            | VerifyError::TypeConflict { method, .. }
            | VerifyError::UninitLocal { method, .. } => method,
        }
    }
}

/// Verify one method's operand types (phase 2) over the joins phase 1
/// stored when the program was built.
///
/// # Errors
///
/// The first operand-type error in pc order: [`VerifyError::TypeConflict`]
/// or [`VerifyError::UninitLocal`].
pub fn verify_method(program: &Program, id: MethodId) -> Result<(), VerifyError> {
    let method = program.method(id);
    let flow = program.flow(id);
    let verifier = Verifier {
        program,
        method,
        check: true,
    };
    let mut joins = flow.joins.iter().peekable();
    let mut frame = Frame::entry(method);
    for (pc, depth) in flow.depths.iter().enumerate() {
        if depth.is_none() {
            continue;
        }
        // A reachable pc that is no join is reached only by falling
        // through from `pc - 1`, so the carried frame is its in-state.
        if let Some((_, joined)) = joins.next_if(|(at, _)| *at as usize == pc) {
            frame.clone_from(joined);
        }
        verifier.transfer(pc, &mut frame)?;
    }
    Ok(())
}

/// Verify every method of one class (the load-time granularity).
///
/// # Errors
///
/// The first failing method's error (see [`verify_method`]).
pub fn verify_class(program: &Program, id: ClassId) -> Result<(), VerifyError> {
    for &m in program.class(id).methods() {
        verify_method(program, m)?;
    }
    Ok(())
}

/// Verify every method of the program.
///
/// # Errors
///
/// The first failing method's error, in method-id order (see
/// [`verify_method`]).
pub fn verify_program(program: &Program) -> Result<(), VerifyError> {
    for m in program.methods() {
        verify_method(program, m.id())?;
    }
    Ok(())
}

/// A typed frame: the method's locals, then its operand stack.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Frame {
    slots: Vec<AbsTy>,
    locals: usize,
}

impl Frame {
    /// The in-state at pc 0: arguments initialized, other locals not.
    fn entry(method: &Method) -> Self {
        let locals = usize::from(method.n_locals());
        let mut slots = vec![AbsTy::Uninit; locals];
        for slot in slots.iter_mut().take(usize::from(method.n_args())) {
            *slot = AbsTy::Unknown;
        }
        Self { slots, locals }
    }

    fn depth(&self) -> usize {
        self.slots.len() - self.locals
    }

    /// Join `other`, of the same depth, into this frame; whether anything
    /// changed.
    fn join(&mut self, other: &Frame) -> bool {
        let mut changed = false;
        for (a, &b) in self.slots.iter_mut().zip(&other.slots) {
            let j = a.join(b);
            changed |= j != *a;
            *a = j;
        }
        changed
    }
}

/// Phase 1's result, which a [`Program`] keeps for each method.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Flow {
    /// The depth table [`Program::stack_depths`] returns.
    pub(crate) depths: Vec<Option<u16>>,
    /// The merged in-state at every reached join (the entry and the
    /// branch targets), in pc order.
    joins: Vec<(u32, Frame)>,
}

/// Phase 1: walk `method` to the fixpoint, checking its structure.
pub(crate) fn propagate(program: &Program, method: &Method) -> Result<Flow, VerifyError> {
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
    let mut is_join = vec![false; code.len()];
    is_join[0] = true;
    for op in code {
        if let Some(j) = op.branch_target().and_then(|t| is_join.get_mut(t as usize)) {
            *j = true;
        }
    }
    let verifier = Verifier {
        program,
        method,
        check: false,
    };
    let mut depths: Vec<Option<u16>> = vec![None; code.len()];
    let mut joins: Vec<Option<Frame>> = vec![None; code.len()];
    let mut work = vec![(0, Frame::entry(method))];

    while let Some((start, mut frame)) = work.pop() {
        match &mut joins[start] {
            Some(joined) if joined.depth() != frame.depth() => {
                return Err(VerifyError::StackDepthMismatch {
                    method: id,
                    pc: start as u32,
                    expected: joined.depth(),
                    found: frame.depth(),
                });
            }
            Some(joined) => {
                if !joined.join(&frame) {
                    continue;
                }
                frame.clone_from(joined);
            }
            slot @ None => *slot = Some(frame.clone()),
        }
        let mut pc = start;
        loop {
            // The check below keeps locals plus depth within `u16::MAX`.
            depths[pc] = Some(frame.depth() as u16);
            verifier.transfer(pc, &mut frame)?;
            if frame.slots.len() > usize::from(u16::MAX) {
                return Err(VerifyError::FrameTooLarge {
                    method: id,
                    pc: pc as u32,
                });
            }
            let op = code[pc];
            if let Some(target) = op.branch_target() {
                if target as usize >= code.len() {
                    return Err(VerifyError::BranchOutOfRange {
                        method: id,
                        pc: pc as u32,
                        target,
                    });
                }
                work.push((target as usize, frame.clone()));
            }
            if op.is_terminator() {
                break;
            }
            pc += 1;
            if pc == code.len() {
                return Err(VerifyError::FallsOffEnd { method: id });
            }
            if is_join[pc] {
                // Walked next: the worklist is last in, first out.
                work.push((pc, frame));
                break;
            }
        }
    }
    let joins = (0..)
        .zip(joins)
        .filter_map(|(pc, join)| Some((pc, join?)))
        .collect();
    Ok(Flow { depths, joins })
}

/// The transfer function over one method; `check` selects phase 2.
struct Verifier<'a> {
    program: &'a Program,
    method: &'a Method,
    check: bool,
}

impl Verifier<'_> {
    /// Pop one operand; in phase 2, judge it against `want`.
    fn pop(&self, frame: &mut Frame, pc: usize, want: Want) -> Result<AbsTy, VerifyError> {
        if frame.depth() == 0 {
            return Err(VerifyError::StackUnderflow {
                method: self.method.id(),
                pc: pc as u32,
            });
        }
        let t = frame.slots.pop().expect("depth is positive");
        if self.check && !want.accepts(t) {
            return Err(VerifyError::TypeConflict {
                method: self.method.id(),
                pc: pc as u32,
                wanted: want.label(),
                found: t,
            });
        }
        Ok(t)
    }

    /// Pop `n` operands of one kind.
    fn pop_n(&self, frame: &mut Frame, pc: usize, n: usize, want: Want) -> Result<(), VerifyError> {
        for _ in 0..n {
            self.pop(frame, pc, want)?;
        }
        Ok(())
    }

    /// Abstractly execute the instruction at `pc`: check its static
    /// operands, then pop its operands and push its results. This match
    /// is the one statement of each op's stack effect.
    fn transfer(&self, pc: usize, frame: &mut Frame) -> Result<(), VerifyError> {
        let (method, id) = (self.method, self.method.id());
        let at = pc as u32;
        let op = method.code()[pc];
        let push = |frame: &mut Frame, t: AbsTy| frame.slots.push(t);
        match op {
            Op::ConstI(_) => push(frame, AbsTy::Int),
            Op::ConstF(_) => push(frame, AbsTy::Float),
            Op::ConstNull => push(frame, AbsTy::Ref),
            Op::Dup => {
                let t = self.pop(frame, pc, Want::Move)?;
                push(frame, t);
                push(frame, t);
            }
            Op::Pop => {
                self.pop(frame, pc, Want::Move)?;
            }
            Op::Swap => {
                let top = self.pop(frame, pc, Want::Move)?;
                let below = self.pop(frame, pc, Want::Move)?;
                push(frame, top);
                push(frame, below);
            }
            Op::Load(n) | Op::Store(n) if n >= method.n_locals() => {
                return Err(VerifyError::LocalOutOfRange {
                    method: id,
                    pc: at,
                    local: n,
                    n_locals: method.n_locals(),
                });
            }
            Op::Load(n) => {
                let t = frame.slots[usize::from(n)];
                if self.check && t == AbsTy::Uninit {
                    return Err(VerifyError::UninitLocal {
                        method: id,
                        pc: at,
                        local: n,
                    });
                }
                push(frame, t);
            }
            Op::Store(n) => {
                let t = self.pop(frame, pc, Want::Move)?;
                frame.slots[usize::from(n)] = t;
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
                self.pop_n(frame, pc, 2, Want::Int)?;
                push(frame, AbsTy::Int);
            }
            Op::Neg => {
                self.pop(frame, pc, Want::Int)?;
                push(frame, AbsTy::Int);
            }
            Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => {
                self.pop_n(frame, pc, 2, Want::Float)?;
                push(frame, AbsTy::Float);
            }
            Op::FNeg | Op::Math(_) => {
                self.pop(frame, pc, Want::Float)?;
                push(frame, AbsTy::Float);
            }
            Op::I2F => {
                self.pop(frame, pc, Want::Int)?;
                push(frame, AbsTy::Float);
            }
            Op::F2I => {
                self.pop(frame, pc, Want::Float)?;
                push(frame, AbsTy::Int);
            }

            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::Eq | Op::Ne => {
                // The interpreter compares any mix of types through total
                // coercions, so both operands only need to be initialized
                // and unconflicted.
                self.pop_n(frame, pc, 2, Want::Value)?;
                push(frame, AbsTy::Int);
            }
            Op::IsNull => {
                self.pop(frame, pc, Want::Value)?;
                push(frame, AbsTy::Int);
            }

            Op::Jump(_) | Op::Nop => {}
            Op::BrTrue(_) | Op::BrFalse(_) => {
                self.pop(frame, pc, Want::Int)?;
            }
            Op::Call(callee) => {
                let Some(sig) = self.program.methods().get(callee.0 as usize) else {
                    return Err(VerifyError::UnknownMethod { method: id, pc: at });
                };
                self.pop_n(frame, pc, usize::from(sig.n_args()), Want::Value)?;
                if sig.returns_value() {
                    push(frame, AbsTy::Unknown);
                }
            }
            Op::Ret | Op::RetV if matches!(op, Op::RetV) != method.returns_value() => {
                return Err(VerifyError::InconsistentReturn { method: id, pc: at });
            }
            Op::Ret => {}
            Op::RetV => {
                self.pop(frame, pc, Want::Value)?;
            }

            Op::New(c) => {
                if c.0 as usize >= self.program.classes().len() {
                    return Err(VerifyError::UnknownClass { method: id, pc: at });
                }
                push(frame, AbsTy::Ref);
            }
            Op::NewArr(_) => {
                self.pop(frame, pc, Want::Int)?;
                push(frame, AbsTy::Ref);
            }
            Op::GetField(_) => {
                self.pop(frame, pc, Want::Ref)?;
                // The receiver's runtime class, and with it the field's
                // type, is not statically known.
                push(frame, AbsTy::Unknown);
            }
            Op::PutField(_) => {
                self.pop(frame, pc, Want::Value)?; // value
                self.pop(frame, pc, Want::Ref)?; // object
            }
            Op::GetStatic(s) | Op::PutStatic(s) => {
                let Some(slot) = self.program.statics().get(usize::from(s)) else {
                    return Err(VerifyError::UnknownStatic {
                        method: id,
                        pc: at,
                        slot: s,
                    });
                };
                let decl = AbsTy::of(slot.ty());
                if let Op::GetStatic(_) = op {
                    push(frame, decl);
                } else {
                    self.pop(frame, pc, Want::Decl(decl))?;
                }
            }
            Op::ALoad => {
                self.pop(frame, pc, Want::Int)?; // index
                self.pop(frame, pc, Want::Ref)?; // array
                push(frame, AbsTy::Unknown);
            }
            Op::AStore => {
                self.pop(frame, pc, Want::Value)?; // value
                self.pop(frame, pc, Want::Int)?; // index
                self.pop(frame, pc, Want::Ref)?; // array
            }
            Op::ArrLen => {
                self.pop(frame, pc, Want::Ref)?;
                push(frame, AbsTy::Int);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

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
        let depths = prog.stack_depths(prog.entry());
        assert_eq!(depths, [Some(0), Some(1), Some(0), None, None]);
    }

    #[test]
    fn a_dangling_branch_in_unreachable_code_is_not_judged() {
        // `jump @99` targets no instruction, but nothing reaches it.
        let prog = crate::assemble(".method main 0 0\n ret\n jump @99\n").unwrap();
        assert_eq!(prog.stack_depths(prog.entry()), [Some(0), None]);
        verify_program(&prog).expect("unreachable code is not judged");
    }

    #[test]
    fn stack_effects_balance_for_simple_ops() {
        // A binary op consumes two and produces one; Dup nets +1 and Pop
        // nets -1. The depth table shows each effect as a step.
        for op in ["add", "fmul", "lt", "xor"] {
            let src = format!(".method main 0 0\n const_i 1\n const_i 2\n {op}\n pop\n ret\n");
            let prog = crate::assemble(&src).unwrap();
            let depths = prog.stack_depths(prog.entry());
            assert_eq!(depths[2..4], [Some(2), Some(1)], "{op}");
        }
        let prog =
            crate::assemble(".method main 0 0\n const_i 1\n dup\n pop\n pop\n ret\n").unwrap();
        let depths = prog.stack_depths(prog.entry());
        assert_eq!(depths, [Some(0), Some(1), Some(2), Some(1), Some(0)]);
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
        verify_method(&prog, main).unwrap();
        let depths = prog.stack_depths(main);
        assert!(depths.iter().all(Option::is_some), "no unreachable pc");
    }

    #[test]
    fn merge_of_int_and_float_rejected_only_at_typed_use() {
        // Two branches reach the join with the SAME depth but Int on one
        // path and Float on the other; phase 1 accepts this. Merely
        // popping the merged value is fine …
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
        let prog = p.finish(benign).expect("phase 1 accepts");
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
        // The builder's own gate is phase 1, which accepts it.
        let prog = p.finish(bad).expect("phase 1 accepts the merge-point bug");
        let err = verify_program(&prog).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::TypeConflict {
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
        let prog = p.finish(main).expect("phase 1 accepts");
        let err = verify_program(&prog).unwrap_err();
        assert!(
            matches!(err, VerifyError::UninitLocal { local: 0, .. }),
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
        let prog = p.finish(main).expect("phase 1 accepts");
        let err = verify_program(&prog).unwrap_err();
        assert!(matches!(err, VerifyError::UninitLocal { local: 1, .. }));
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
        let prog = p.finish(main).expect("phase 1 accepts");
        let err = verify_program(&prog).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::TypeConflict {
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
        let prog = p.finish(main).expect("phase 1 accepts");
        assert!(verify_program(&prog).is_err());
    }

    #[test]
    fn loops_reach_the_fixpoint_and_verify() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 100, |b| {
                b.load(0).load(1).add().store(0);
            });
            b.load(0).ret_value();
        });
        let prog = p.finish(main).unwrap();
        verify_program(&prog).unwrap();
    }

    #[test]
    fn a_type_change_at_a_loop_head_is_walked_again() {
        // Local 0 enters the loop as an argument (`unknown`) and comes
        // back as a float; the head's join becomes `float`, so the walk
        // must revisit the body before phase 2 judges the `add` there.
        let prog = crate::assemble(
            ".method main 0 1 ret\n const_i 0\n call f\n ret_value\n\
             .method f 1 1 ret\n\
             head: load 0\n const_i 1\n add\n pop\n const_f 1.0\n store 0\n \
             const_i 1\n br_true head\n const_i 0\n ret_value\n",
        )
        .expect("phase 1 accepts");
        let f = prog.methods()[1].id();
        let err = verify_method(&prog, f).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::TypeConflict {
                    pc: 2,
                    found: AbsTy::Float,
                    ..
                }
            ),
            "got {err:?}"
        );
    }
}

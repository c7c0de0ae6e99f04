//! The execution engine: `Vm::step` runs one frame's lowered
//! [`RirBody`](super::RirBody) over its register window until the frame
//! calls, returns, or faults.
//!
//! **Metering obligations** (checked by the recorded engine corpus): per
//! executed instruction, the quantum check comes first, then `ifetch` on
//! the `pc & 7 == 0` cadence at the tier's code expansion, then the
//! tier's dispatch µops, then the instruction's own charges, with faults
//! raised at the instruction's `pc`. The frame's tier, snapshotted at
//! invocation, is the only input that distinguishes baseline, JIT and
//! optimized code.
//!
//! **Two paths, one definition.** Each instruction is defined once, in
//! `Vm::instr`, generic over the sink its charges go to, and `step` runs
//! it on two paths, instantiated per tier with the tier's dispatch µops,
//! locals-in-memory flag and code expansion as constants:
//! - the *hot loop* (`Vm::hot_loop`, kept out of line) runs the body's
//!   fused stream, where one entry may be an idiom of up to
//!   [`MAX_IDIOM`] ops (`super::fuse`), and charges into a [`Ledger`]
//!   checked out of the machine and held in registers, with no deadline
//!   compare per charge;
//! - the *exact path* runs the canonical stream and charges the
//!   [`Meter`], which compares the cycle accumulator with the next DAQ/HPM
//!   deadline after every charge, and checks the quantum before the
//!   instruction.
//!
//! An idiom is metered as its ops would be, one after another: each
//! component's ifetch, dispatch µops and step-budget check at its own pc
//! and count, then its own charges; its state changes (window, statics,
//! the back-edge hotness bump) all follow its last charge, in component
//! order.
//!
//! The hot loop runs an entry only while the accumulator lies below its
//! *horizon*: `min(next quantum, next DAQ/HPM deadline − the most the
//! entry's ops can charge)`, where an idiom counts [`MAX_IDIOM`] ops (one
//! fewer against the quantum, which is checked before an op). That
//! horizon stands in for the meter's per-charge deadline check and the
//! engine's quantum check: under it, neither could fire inside the entry.
//! Between the two horizons the loop runs the canonical op. An entry the
//! ledger cannot charge exactly leaves the loop before it changes any
//! state: an ifetch or data access outside the most recent line of its L1
//! set, a fault, a math intrinsic, a call or return, an allocation, a
//! reference store (write barrier) and an expiring step budget. An idiom
//! that leaves is retried as its first op alone; an op that leaves makes
//! the engine check the ledger back in with one call and run that op,
//! from its start, on the exact path. Nothing out of line is called while
//! the ledger is live: a call would make the accumulator spill to the
//! stack, and the hot loop exists to keep it in a register.
//!
//! **Loop state.** `step` keeps the next pc, the bytecode count and the
//! frame's code in locals, so the loop does not reload them through
//! `self` or `frame`. Nothing an instruction does reads the frame's pc or
//! `stats.bytecodes`; both are written back when the frame leaves `step`:
//! at a call, a return, and every fault.

use vmprobe_bytecode::MethodId;
use vmprobe_heap::{AllocRequest, ObjKind};
use vmprobe_platform::{CpuSpec, Exec, Ledger};

use super::fuse::MAX_IDIOM;
use super::{compare, f_alu, int_alu, math_fn, RirBody, RirOp};
use crate::vm::{Frame, Vm, STATICS_BASE};
use crate::{Meter, Tier, Value, VmError};

/// Cycles added to the horizon's margin for `f64` rounding. Below 2⁵³
/// each addition to the accumulator rounds by at most half a cycle; a
/// covered instruction makes at most three additions (dispatch and two
/// charges of its own) and the horizon one subtraction.
const ROUNDING_SLACK: f64 = 4.0;

/// The most cycles one instruction the hot loop covers can add, at
/// `dispatch` µops of dispatch, plus [`ROUNDING_SLACK`]. A covered
/// instruction charges one fp op, one branch, or at most two integer µops
/// and one data access hitting L1 (`ALoad`, `AStore`); its ifetch hits L1
/// and costs nothing.
fn max_covered_cycles(spec: &CpuSpec, dispatch: u32) -> f64 {
    let own = spec
        .fp_cost
        .max(spec.branch_cost)
        .max(2.0 * spec.int_cost + spec.mem_base_cost);
    f64::from(dispatch) * spec.int_cost + own + ROUNDING_SLACK
}

/// Where the hot loop may run: below `op` an op's charges, below `idiom`
/// an idiom's, can reach neither the quantum nor a sample deadline.
#[derive(Clone, Copy)]
struct Horizon {
    op: f64,
    idiom: f64,
}

/// Why an instruction stopped the frame's run.
enum Exit {
    /// The hot loop cannot charge this instruction exactly; it runs again
    /// on the exact path.
    Leave,
    /// Call the method, with the operand stack saved at the given depth.
    Call(MethodId, u16),
    /// Return from the frame, with its value if it has one.
    Ret(Option<Value>),
    /// A typed fault at the instruction.
    Fault(VmError),
}

/// Where an instruction's charges go: the [`Exec`] charges the engine
/// makes, each of which may refuse with [`Exit::Leave`] where the ledger
/// cannot take it.
trait Sink {
    /// Whether this path runs the fused stream (only the hot loop does).
    const FUSED: bool;
    fn ifetch(&mut self, m: &mut Meter, addr: u64) -> Result<(), Exit>;
    fn int_ops(&mut self, m: &mut Meter, n: u32);
    fn fp_ops(&mut self, m: &mut Meter, n: u32);
    fn branch(&mut self, m: &mut Meter);
    fn load(&mut self, m: &mut Meter, addr: u64) -> Result<(), Exit>;
    fn store(&mut self, m: &mut Meter, addr: u64) -> Result<(), Exit>;
    /// Admit work only the exact path does: math intrinsics, calls,
    /// returns, allocation and write barriers.
    fn exact(&self) -> Result<(), Exit>;
    /// How a fault `e` stops the frame.
    fn fault(&self, e: VmError) -> Exit;
}

/// The exact path: every charge goes to the meter, which takes any sample
/// that comes due after it.
struct Exact;

impl Sink for Exact {
    const FUSED: bool = false;
    fn ifetch(&mut self, m: &mut Meter, addr: u64) -> Result<(), Exit> {
        m.ifetch(addr);
        Ok(())
    }
    fn int_ops(&mut self, m: &mut Meter, n: u32) {
        m.int_ops(n);
    }
    fn fp_ops(&mut self, m: &mut Meter, n: u32) {
        m.fp_ops(n);
    }
    fn branch(&mut self, m: &mut Meter) {
        m.branch();
    }
    fn load(&mut self, m: &mut Meter, addr: u64) -> Result<(), Exit> {
        m.load(addr);
        Ok(())
    }
    fn store(&mut self, m: &mut Meter, addr: u64) -> Result<(), Exit> {
        m.store(addr);
        Ok(())
    }
    fn exact(&self) -> Result<(), Exit> {
        Ok(())
    }
    fn fault(&self, e: VmError) -> Exit {
        Exit::Fault(e)
    }
}

/// The hot loop's sink: the checked-out ledger and the costs it charges,
/// all in locals.
#[derive(Clone, Copy)]
struct Hot {
    ledger: Ledger,
    int_cost: f64,
    fp_cost: f64,
    branch_cost: f64,
    mem_cost: f64,
}

impl Hot {
    #[inline(always)]
    fn check_out(m: &Meter) -> Self {
        let spec = m.machine().spec();
        Self {
            ledger: m.check_out(),
            int_cost: spec.int_cost,
            fp_cost: spec.fp_cost,
            branch_cost: spec.branch_cost,
            mem_cost: spec.mem_base_cost,
        }
    }
}

impl Sink for Hot {
    const FUSED: bool = true;
    #[inline(always)]
    fn ifetch(&mut self, m: &mut Meter, addr: u64) -> Result<(), Exit> {
        if !m.machine().l1i_is_mru(addr) {
            return Err(Exit::Leave);
        }
        self.ledger.ifetch_hit();
        Ok(())
    }
    #[inline(always)]
    fn int_ops(&mut self, _: &mut Meter, n: u32) {
        self.ledger.int_ops(n, self.int_cost);
    }
    #[inline(always)]
    fn fp_ops(&mut self, _: &mut Meter, n: u32) {
        self.ledger.fp_ops(n, self.fp_cost);
    }
    #[inline(always)]
    fn branch(&mut self, _: &mut Meter) {
        self.ledger.branch(self.branch_cost);
    }
    #[inline(always)]
    fn load(&mut self, m: &mut Meter, addr: u64) -> Result<(), Exit> {
        if !m.machine().l1d_is_mru(addr) {
            return Err(Exit::Leave);
        }
        self.ledger.load(self.mem_cost);
        Ok(())
    }
    #[inline(always)]
    fn store(&mut self, m: &mut Meter, addr: u64) -> Result<(), Exit> {
        if !m.machine().l1d_is_mru(addr) {
            return Err(Exit::Leave);
        }
        self.ledger.store(self.mem_cost);
        Ok(())
    }
    #[inline(always)]
    fn exact(&self) -> Result<(), Exit> {
        Err(Exit::Leave)
    }
    #[inline(always)]
    fn fault(&self, _: VmError) -> Exit {
        Exit::Leave
    }
}

/// The executing frame's fixed parts.
struct Code<'a> {
    body: &'a RirBody,
    ops: &'a [RirOp],
    fused: &'a [RirOp],
    method: MethodId,
    code_addr: u64,
    stack_addr: u64,
    budget: u64,
}

impl Vm {
    /// Execute `frame` (already popped by the run loop) until it calls,
    /// returns, or faults.
    pub(crate) fn step(&mut self, frame: Frame) -> Result<(), VmError> {
        macro_rules! run {
            ($tier:expr) => {{
                const DISPATCH: u32 = $tier.dispatch_ops();
                const LOCALS_IN_MEMORY: bool = $tier.locals_in_memory();
                const EXPANSION: u32 = $tier.code_expansion();
                self.run_tier::<DISPATCH, LOCALS_IN_MEMORY, EXPANSION>(frame)
            }};
        }
        match frame.tier {
            Tier::Uncompiled => {
                unreachable!("Vm::invoke compiles a method before it pushes its frame")
            }
            Tier::Baseline => run!(Tier::Baseline),
            Tier::Jit => run!(Tier::Jit),
            Tier::Opt => run!(Tier::Opt),
        }
    }

    /// [`Vm::step`] at one tier's metering constants.
    fn run_tier<const DISPATCH: u32, const LOCALS_IN_MEMORY: bool, const EXPANSION: u32>(
        &mut self,
        mut frame: Frame,
    ) -> Result<(), VmError> {
        let body = &*frame.body;
        let code = Code {
            body,
            ops: &body.ops,
            fused: &body.fused,
            method: frame.method,
            code_addr: frame.code_addr,
            stack_addr: frame.stack_addr,
            budget: self.step_budget,
        };
        // An idiom's last component starts at most `MAX_IDIOM - 1` covered
        // ops past the horizon and ends at most `MAX_IDIOM` past it.
        let max_op = max_covered_cycles(self.meter.machine().spec(), DISPATCH);
        let idiom_quantum_margin = (MAX_IDIOM - 1) as f64 * max_op;
        let idiom_probe_margin = MAX_IDIOM as f64 * max_op;
        let mut next = frame.pc as usize;
        let mut bytecodes = self.stats.bytecodes;
        let exit = loop {
            // Hot loop: charges go to the ledger, under the horizon.
            let next_probe = self.meter.next_probe_at();
            let horizon = Horizon {
                op: self.next_quantum.min(next_probe - max_op),
                idiom: (self.next_quantum - idiom_quantum_margin)
                    .min(next_probe - idiom_probe_margin),
            };
            (next, bytecodes) = self.hot_loop::<DISPATCH, LOCALS_IN_MEMORY, EXPANSION>(
                &code,
                &mut frame.window,
                next,
                bytecodes,
                horizon,
            );

            // Exact path: one instruction, metered per charge.
            if self.meter.machine().cycles_f64() >= self.next_quantum {
                self.quantum();
            }
            bytecodes += 1;
            match self.instr::<_, DISPATCH, LOCALS_IN_MEMORY, EXPANSION>(
                &mut Exact,
                &code,
                &mut frame.window,
                next,
                bytecodes,
                false,
            ) {
                Ok((pc, _)) => next = pc,
                Err(exit) => break exit,
            }
        };

        self.stats.bytecodes = bytecodes;
        match exit {
            Exit::Call(m, save_sp) => {
                // The caller resumes after the call.
                frame.pc = next as u32 + 1;
                frame.live_sp = save_sp;
                self.frames.push(frame);
                self.invoke(m)
            }
            Exit::Ret(v) => {
                if let Some(v) = v {
                    match self.frames.last_mut() {
                        Some(caller) => caller.push_return(v),
                        None => self.result = Some(v),
                    }
                }
                self.windows.release(frame.window);
                Ok(())
            }
            Exit::Fault(e) => {
                frame.pc = next as u32;
                self.frames.push(frame);
                Err(e)
            }
            Exit::Leave => unreachable!("the exact path runs every instruction"),
        }
    }

    /// The hot loop: check the ledger out, run the fused stream from
    /// `next` into it while it lies below the horizon and can take each
    /// entry's charges, and check it back in. An idiom whose trial is dropped gets one more try
    /// as its first op alone, and an idiom that would start above
    /// `horizon.idiom` runs that way too. Returns the pc and bytecode
    /// count the loop stopped at. Kept out of line, so that its ledger,
    /// costs and loop state have the registers to themselves.
    #[inline(never)]
    fn hot_loop<const DISPATCH: u32, const LOCALS_IN_MEMORY: bool, const EXPANSION: u32>(
        &mut self,
        code: &Code<'_>,
        window: &mut [Value],
        mut next: usize,
        mut bytecodes: u64,
        horizon: Horizon,
    ) -> (usize, u64) {
        let mut ledger = Hot::check_out(&self.meter);
        let mut retry = false;
        while ledger.ledger.cycles() < horizon.op {
            let fused = !retry && ledger.ledger.cycles() < horizon.idiom;
            // An entry that leaves may already have charged its trial
            // ledger, but it has changed no state: every entry's state
            // changes follow its charges.
            let mut trial = ledger;
            match self.instr::<_, DISPATCH, LOCALS_IN_MEMORY, EXPANSION>(
                &mut trial,
                code,
                window,
                next,
                bytecodes + 1,
                fused,
            ) {
                Ok((pc, n)) => {
                    ledger = trial;
                    next = pc;
                    bytecodes += n;
                    retry = false;
                }
                // An idiom is the one entry that differs from its pc's
                // canonical op in kind.
                Err(_)
                    if fused
                        && std::mem::discriminant(&code.fused[next])
                            != std::mem::discriminant(&code.ops[next]) =>
                {
                    retry = true
                }
                Err(_) => break,
            }
        }
        self.meter.check_in(ledger.ledger);
        (next, bytecodes)
    }

    /// Run the entry at `pc`, the frame's `count`-th bytecode, charging
    /// `s`: the canonical op, or with `fused` on the hot loop the fused
    /// stream's entry (an idiom or the canonical op). Returns the next pc
    /// and the bytecodes run, or why the frame stops.
    #[inline(always)]
    fn instr<S: Sink, const DISPATCH: u32, const LOCALS_IN_MEMORY: bool, const EXPANSION: u32>(
        &mut self,
        s: &mut S,
        code: &Code<'_>,
        window: &mut [Value],
        pc: usize,
        count: u64,
        fused: bool,
    ) -> Result<(usize, u64), Exit> {
        let method = code.method;
        let at = pc as u32;
        macro_rules! fault {
            ($e:expr) => {
                return Err(s.fault($e))
            };
        }
        // The metering every op starts with: the `pc & 7 == 0` ifetch at
        // the tier's expansion, the tier's dispatch µops, then the step
        // budget at the op's own count. Component `$i` of an idiom runs it
        // at `pc + $i`.
        macro_rules! enter {
            ($i:expr) => {{
                let pc = pc + $i;
                if pc & 7 == 0 {
                    let addr = code.code_addr + (pc as u64) * u64::from(EXPANSION);
                    s.ifetch(&mut self.meter, addr)?;
                }
                if DISPATCH > 0 {
                    s.int_ops(&mut self.meter, DISPATCH);
                }
                if count + $i >= code.budget {
                    fault!(VmError::StepBudgetExhausted {
                        budget: code.budget
                    });
                }
            }};
        }
        // A `LoadLocal`/`StoreLocal` charge: stack-memory traffic when the
        // tier keeps locals in memory, one µop when it does not.
        macro_rules! local {
            ($access:ident, $local:expr) => {
                if LOCALS_IN_MEMORY {
                    s.$access(&mut self.meter, code.stack_addr + u64::from($local) * 8)?;
                } else {
                    s.int_ops(&mut self.meter, 1);
                }
            };
        }
        // A branch component `$len - 1` of the entry: its state change
        // (the back-edge hotness bump) and where the frame goes next.
        macro_rules! branch {
            ($taken:expr, $target:expr, $back_edge:expr, $len:expr) => {{
                if $taken {
                    if $back_edge {
                        self.compilers.method_mut(method).hotness += 1;
                    }
                    return Ok(($target as usize, $len));
                }
                return Ok((pc + $len, $len));
            }};
        }
        // The arms of fused idioms: unreachable on the exact path, which
        // reads the canonical stream.
        macro_rules! hot_only {
            () => {
                if !S::FUSED {
                    unreachable!("the canonical stream holds no fused idiom")
                }
            };
        }
        let op = if S::FUSED && fused {
            code.fused[pc]
        } else {
            code.ops[pc]
        };
        enter!(0);
        match op {
            // ---- constants & moves ----
            RirOp::ConstI { dst, lit } => {
                s.int_ops(&mut self.meter, 1);
                window[dst as usize] = Value::I(code.body.pool_i[lit as usize]);
            }
            RirOp::ConstF { dst, lit } => {
                s.int_ops(&mut self.meter, 1);
                window[dst as usize] = Value::F(code.body.pool_f[lit as usize]);
            }
            RirOp::ConstNull { dst } => {
                s.int_ops(&mut self.meter, 1);
                window[dst as usize] = Value::Null;
            }
            RirOp::Mov { dst, src } => {
                s.int_ops(&mut self.meter, 1);
                window[dst as usize] = window[src as usize];
            }
            RirOp::LoadLocal { dst, local } => {
                local!(load, local);
                window[dst as usize] = window[local as usize];
            }
            RirOp::StoreLocal { local, src } => {
                local!(store, local);
                window[local as usize] = window[src as usize];
            }
            RirOp::Drop => {
                s.int_ops(&mut self.meter, 1);
            }
            RirOp::Swap { a, b } => {
                s.int_ops(&mut self.meter, 2);
                window.swap(a as usize, b as usize);
            }

            // ---- integer ALU ----
            RirOp::IntAlu { kind, dst, a, b } => {
                s.int_ops(&mut self.meter, 1);
                let av = window[a as usize].as_i();
                let bv = window[b as usize].as_i();
                window[dst as usize] = Value::I(int_alu(kind, av, bv));
            }
            RirOp::Neg { dst, src } => {
                s.int_ops(&mut self.meter, 1);
                let a = window[src as usize].as_i();
                window[dst as usize] = Value::I(a.wrapping_neg());
            }

            // ---- float ALU ----
            RirOp::FAlu { kind, dst, a, b } => {
                s.fp_ops(&mut self.meter, 1);
                let av = window[a as usize].as_f();
                let bv = window[b as usize].as_f();
                window[dst as usize] = Value::F(f_alu(kind, av, bv));
            }
            RirOp::FNeg { dst, src } => {
                s.fp_ops(&mut self.meter, 1);
                let a = window[src as usize].as_f();
                window[dst as usize] = Value::F(-a);
            }
            RirOp::Math { f, dst, src } => {
                s.exact()?;
                self.meter.math_op();
                let a = window[src as usize].as_f();
                window[dst as usize] = Value::F(math_fn(f, a));
            }
            RirOp::I2F { dst, src } => {
                s.fp_ops(&mut self.meter, 1);
                let a = window[src as usize].as_i();
                window[dst as usize] = Value::F(a as f64);
            }
            RirOp::F2I { dst, src } => {
                s.fp_ops(&mut self.meter, 1);
                let a = window[src as usize].as_f();
                window[dst as usize] = Value::I(if a.is_nan() { 0 } else { a as i64 });
            }

            // ---- comparisons ----
            RirOp::Cmp { kind, dst, a, b } => {
                s.int_ops(&mut self.meter, 1);
                let r = compare(kind, window[a as usize], window[b as usize]);
                window[dst as usize] = Value::I(i64::from(r));
            }
            RirOp::IsNull { dst, src } => {
                s.int_ops(&mut self.meter, 1);
                let r = window[src as usize] == Value::Null;
                window[dst as usize] = Value::I(i64::from(r));
            }

            // ---- control flow ----
            RirOp::Jump { target, back_edge } => {
                s.branch(&mut self.meter);
                branch!(true, target, back_edge, 1);
            }
            RirOp::Br {
                cond,
                target,
                on_true,
                back_edge,
            } => {
                s.branch(&mut self.meter);
                branch!(
                    window[cond as usize].truthy() == on_true,
                    target,
                    back_edge,
                    1
                );
            }
            RirOp::Call { m, save_sp } => {
                s.exact()?;
                self.meter.int_ops(4);
                return Err(Exit::Call(m, save_sp));
            }
            RirOp::Ret => {
                s.exact()?;
                self.meter.int_ops(3);
                return Err(Exit::Ret(None));
            }
            RirOp::RetV { src } => {
                s.exact()?;
                self.meter.int_ops(3);
                return Err(Exit::Ret(Some(window[src as usize])));
            }

            // ---- objects & arrays ----
            RirOp::New { class, dst, gc_sp } => {
                s.exact()?;
                if let Err(e) = self
                    .loader
                    .ensure_loaded(&self.program, class, &mut self.meter)
                {
                    fault!(e);
                }
                let rt = self.loader.class(class);
                let req = AllocRequest::instance(class.0, rt.ref_slots(), rt.prim_slots());
                let (live, rest) = window.split_at(code.body.n_locals as usize);
                match self.alloc(req, live, &rest[..gc_sp as usize]) {
                    Ok(id) => window[dst as usize] = Value::Ref(id),
                    Err(e) => fault!(e),
                }
            }
            RirOp::NewArr {
                kind,
                len,
                dst,
                gc_sp,
            } => {
                s.exact()?;
                self.meter.int_ops(2);
                let len = window[len as usize].as_i();
                if len < 0 {
                    fault!(VmError::NegativeArrayLength {
                        method,
                        pc: at,
                        len,
                    });
                }
                let len = len as u32;
                let req = match kind {
                    vmprobe_bytecode::ArrKind::Int => AllocRequest::int_array(len),
                    vmprobe_bytecode::ArrKind::Float => AllocRequest::float_array(len),
                    vmprobe_bytecode::ArrKind::Ref => AllocRequest::ref_array(len),
                };
                let (live, rest) = window.split_at(code.body.n_locals as usize);
                match self.alloc(req, live, &rest[..gc_sp as usize]) {
                    Ok(id) => window[dst as usize] = Value::Ref(id),
                    Err(e) => fault!(e),
                }
            }
            RirOp::GetField { obj, dst, fidx } => {
                window[dst as usize] = self.get_field(s, method, at, window[obj as usize], fidx)?;
            }
            RirOp::PutField { obj, val, fidx } => {
                let v = window[val as usize];
                let obj = window[obj as usize];
                let Some(id) = obj.as_ref_id() else {
                    fault!(VmError::NullDereference { method, pc: at });
                };
                let ObjKind::Instance { class } = self.heap.get(id).kind() else {
                    fault!(VmError::BadSlot {
                        method,
                        pc: at,
                        slot: fidx,
                    });
                };
                let layout = self.loader.class(vmprobe_bytecode::ClassId(class)).layout();
                let Some(&slot) = layout.get(fidx as usize) else {
                    fault!(VmError::BadSlot {
                        method,
                        pc: at,
                        slot: fidx,
                    });
                };
                let addr = self.heap.get(id).addr() + 16 + u64::from(fidx) * 8;
                s.store(&mut self.meter, addr)?;
                if slot.is_ref {
                    s.exact()?;
                    let target = v.as_ref_id();
                    self.plan
                        .write_barrier(&mut self.heap, id, target, &mut self.meter);
                    self.heap.set_ref(id, slot.slot as usize, target);
                } else {
                    self.heap.set_prim(id, slot.slot as usize, v.to_bits());
                }
            }
            RirOp::GetStatic { dst, slot } => {
                s.load(&mut self.meter, STATICS_BASE + u64::from(slot) * 8)?;
                window[dst as usize] = self.statics[slot as usize];
            }
            RirOp::PutStatic { src, slot } => {
                s.store(&mut self.meter, STATICS_BASE + u64::from(slot) * 8)?;
                self.statics[slot as usize] = window[src as usize];
            }
            RirOp::ALoad { arr, idx, dst } => {
                let (arr, idx) = (window[arr as usize], window[idx as usize]);
                window[dst as usize] = self.array_load(s, method, at, arr, idx)?;
            }
            RirOp::AStore { arr, idx, val } => {
                let v = window[val as usize];
                let idx = window[idx as usize].as_i();
                let arr = window[arr as usize];
                let Some(id) = arr.as_ref_id() else {
                    fault!(VmError::NullDereference { method, pc: at });
                };
                s.int_ops(&mut self.meter, 2);
                let (kind, len) = {
                    let o = self.heap.get(id);
                    (o.kind(), o.ref_count().max(o.prim_count()))
                };
                if idx < 0 || idx as usize >= len {
                    fault!(VmError::IndexOutOfBounds {
                        method,
                        pc: at,
                        index: idx,
                        len,
                    });
                }
                let addr = self.heap.get(id).addr() + 16 + (idx as u64) * 8;
                s.store(&mut self.meter, addr)?;
                if kind == ObjKind::RefArray {
                    s.exact()?;
                    let target = v.as_ref_id();
                    self.plan
                        .write_barrier(&mut self.heap, id, target, &mut self.meter);
                    self.heap.set_ref(id, idx as usize, target);
                } else {
                    self.heap.set_prim(id, idx as usize, v.to_bits());
                }
            }
            RirOp::ArrLen { arr, dst } => {
                let arr = window[arr as usize];
                let Some(id) = arr.as_ref_id() else {
                    fault!(VmError::NullDereference { method, pc: at });
                };
                // Length lives in the array header.
                s.load(&mut self.meter, self.heap.get(id).addr())?;
                let o = self.heap.get(id);
                window[dst as usize] = Value::I(o.ref_count().max(o.prim_count()) as i64);
            }
            RirOp::Nop => {
                s.int_ops(&mut self.meter, 1);
            }

            // ---- fused idioms (`fuse::components` gives each one's
            // ops): every component's metering in order, then every state
            // change in component order ----
            RirOp::LdLdCmpBr {
                a,
                b,
                d,
                kind,
                on_true,
                back_edge,
                target,
            } => {
                hot_only!();
                local!(load, a);
                enter!(1);
                local!(load, b);
                enter!(2);
                s.int_ops(&mut self.meter, 1);
                enter!(3);
                s.branch(&mut self.meter);
                let d = d as usize;
                let (va, vb) = (window[a as usize], window[b as usize]);
                let r = Value::I(i64::from(compare(kind, va, vb)));
                window[d] = va;
                window[d + 1] = vb;
                window[d] = r;
                branch!(r.truthy() == on_true, target, back_edge, 4);
            }
            RirOp::LdConstIAluSt { a, d, c, kind, lit } => {
                hot_only!();
                local!(load, a);
                enter!(1);
                s.int_ops(&mut self.meter, 1);
                enter!(2);
                s.int_ops(&mut self.meter, 1);
                enter!(3);
                local!(store, c);
                let d = d as usize;
                let va = window[a as usize];
                let k = code.body.pool_i[lit as usize];
                let r = Value::I(int_alu(kind, va.as_i(), k));
                window[d] = va;
                window[d + 1] = Value::I(k);
                window[d] = r;
                window[c as usize] = r;
                return Ok((pc + 4, 4));
            }
            RirOp::LdConstFFAluFAlu { a, d, k1, k2, lit } => {
                hot_only!();
                local!(load, a);
                enter!(1);
                s.int_ops(&mut self.meter, 1);
                enter!(2);
                s.fp_ops(&mut self.meter, 1);
                enter!(3);
                s.fp_ops(&mut self.meter, 1);
                let d = d as usize;
                let va = window[a as usize];
                let k = code.body.pool_f[lit as usize];
                let x = f_alu(k1, va.as_f(), k);
                let y = f_alu(k2, window[d].as_f(), x);
                window[d + 1] = va;
                window[d + 2] = Value::F(k);
                window[d + 1] = Value::F(x);
                window[d] = Value::F(y);
                return Ok((pc + 4, 4));
            }
            RirOp::LdConstIAlu { a, d, kind, lit } => {
                hot_only!();
                local!(load, a);
                enter!(1);
                s.int_ops(&mut self.meter, 1);
                enter!(2);
                s.int_ops(&mut self.meter, 1);
                let d = d as usize;
                let va = window[a as usize];
                let k = code.body.pool_i[lit as usize];
                window[d] = va;
                window[d + 1] = Value::I(k);
                window[d] = Value::I(int_alu(kind, va.as_i(), k));
                return Ok((pc + 3, 3));
            }
            RirOp::LdConstFFAlu { a, d, kind, lit } => {
                hot_only!();
                local!(load, a);
                enter!(1);
                s.int_ops(&mut self.meter, 1);
                enter!(2);
                s.fp_ops(&mut self.meter, 1);
                let d = d as usize;
                let va = window[a as usize];
                let k = code.body.pool_f[lit as usize];
                window[d] = va;
                window[d + 1] = Value::F(k);
                window[d] = Value::F(f_alu(kind, va.as_f(), k));
                return Ok((pc + 3, 3));
            }
            RirOp::ConstICmpBr {
                d,
                kind,
                on_true,
                back_edge,
                lit,
                target,
            } => {
                hot_only!();
                s.int_ops(&mut self.meter, 1);
                enter!(1);
                s.int_ops(&mut self.meter, 1);
                enter!(2);
                s.branch(&mut self.meter);
                let d = d as usize;
                let k = Value::I(code.body.pool_i[lit as usize]);
                let r = Value::I(i64::from(compare(kind, window[d], k)));
                window[d + 1] = k;
                window[d] = r;
                branch!(r.truthy() == on_true, target, back_edge, 3);
            }
            RirOp::GetSLdGetF { slot, a, d, fidx } => {
                hot_only!();
                s.load(&mut self.meter, STATICS_BASE + u64::from(slot) * 8)?;
                enter!(1);
                local!(load, a);
                enter!(2);
                let va = window[a as usize];
                let v = self.get_field(s, method, at + 2, va, fidx)?;
                let d = d as usize;
                window[d] = self.statics[slot as usize];
                window[d + 1] = va;
                window[d + 1] = v;
                return Ok((pc + 3, 3));
            }
            RirOp::LdLd { a, b, d } => {
                hot_only!();
                local!(load, a);
                enter!(1);
                local!(load, b);
                let d = d as usize;
                let (va, vb) = (window[a as usize], window[b as usize]);
                window[d] = va;
                window[d + 1] = vb;
                return Ok((pc + 2, 2));
            }
            RirOp::ConstIAlu { d, kind, lit } => {
                hot_only!();
                s.int_ops(&mut self.meter, 1);
                enter!(1);
                s.int_ops(&mut self.meter, 1);
                let d = d as usize;
                let k = code.body.pool_i[lit as usize];
                window[d + 1] = Value::I(k);
                window[d] = Value::I(int_alu(kind, window[d].as_i(), k));
                return Ok((pc + 2, 2));
            }
            RirOp::ConstFFAlu { d, kind, lit } => {
                hot_only!();
                s.int_ops(&mut self.meter, 1);
                enter!(1);
                s.fp_ops(&mut self.meter, 1);
                let d = d as usize;
                let k = code.body.pool_f[lit as usize];
                window[d + 1] = Value::F(k);
                window[d] = Value::F(f_alu(kind, window[d].as_f(), k));
                return Ok((pc + 2, 2));
            }
            RirOp::LdAlu { a, d, kind } => {
                hot_only!();
                local!(load, a);
                enter!(1);
                s.int_ops(&mut self.meter, 1);
                let d = d as usize;
                let va = window[a as usize];
                window[d + 1] = va;
                window[d] = Value::I(int_alu(kind, window[d].as_i(), va.as_i()));
                return Ok((pc + 2, 2));
            }
            RirOp::FAluSt { d, c, kind } => {
                hot_only!();
                s.fp_ops(&mut self.meter, 1);
                enter!(1);
                local!(store, c);
                let d = d as usize;
                let r = Value::F(f_alu(kind, window[d].as_f(), window[d + 1].as_f()));
                window[d] = r;
                window[c as usize] = r;
                return Ok((pc + 2, 2));
            }
            RirOp::AluPutS { d, slot, kind } => {
                hot_only!();
                s.int_ops(&mut self.meter, 1);
                enter!(1);
                s.store(&mut self.meter, STATICS_BASE + u64::from(slot) * 8)?;
                let d = d as usize;
                let r = Value::I(int_alu(kind, window[d].as_i(), window[d + 1].as_i()));
                window[d] = r;
                self.statics[slot as usize] = r;
                return Ok((pc + 2, 2));
            }
            RirOp::LdALoad { a, d } => {
                hot_only!();
                local!(load, a);
                enter!(1);
                let d = d as usize;
                let va = window[a as usize];
                let v = self.array_load(s, method, at + 1, window[d], va)?;
                window[d + 1] = va;
                window[d] = v;
                return Ok((pc + 2, 2));
            }
            RirOp::MovMov { d } => {
                hot_only!();
                s.int_ops(&mut self.meter, 1);
                enter!(1);
                s.int_ops(&mut self.meter, 1);
                let d = d as usize;
                let v = window[d];
                window[d + 1] = v;
                window[d + 2] = v;
                return Ok((pc + 2, 2));
            }
        }
        Ok((pc + 1, 1))
    }

    /// `GetField`'s checks, charge and read of `obj.field[fidx]` for the
    /// op at `at`.
    #[inline(always)]
    fn get_field<S: Sink>(
        &mut self,
        s: &mut S,
        method: MethodId,
        at: u32,
        obj: Value,
        fidx: u16,
    ) -> Result<Value, Exit> {
        let Some(id) = obj.as_ref_id() else {
            return Err(s.fault(VmError::NullDereference { method, pc: at }));
        };
        let bad_slot = VmError::BadSlot {
            method,
            pc: at,
            slot: fidx,
        };
        let ObjKind::Instance { class } = self.heap.get(id).kind() else {
            return Err(s.fault(bad_slot));
        };
        let layout = self.loader.class(vmprobe_bytecode::ClassId(class)).layout();
        let Some(&slot) = layout.get(fidx as usize) else {
            return Err(s.fault(bad_slot));
        };
        let addr = self.heap.get(id).addr() + 16 + u64::from(fidx) * 8;
        s.load(&mut self.meter, addr)?;
        Ok(if slot.is_ref {
            match self.heap.get_ref(id, slot.slot as usize) {
                Some(r) => Value::Ref(r),
                None => Value::Null,
            }
        } else {
            let bits = self.heap.get_prim(id, slot.slot as usize);
            if slot.is_float {
                Value::F(f64::from_bits(bits))
            } else {
                Value::I(bits as i64)
            }
        })
    }

    /// `ALoad`'s checks, charges and read of `arr[idx]` for the op at
    /// `at`.
    #[inline(always)]
    fn array_load<S: Sink>(
        &mut self,
        s: &mut S,
        method: MethodId,
        at: u32,
        arr: Value,
        idx: Value,
    ) -> Result<Value, Exit> {
        let idx = idx.as_i();
        let Some(id) = arr.as_ref_id() else {
            return Err(s.fault(VmError::NullDereference { method, pc: at }));
        };
        s.int_ops(&mut self.meter, 2); // bounds check
        let (kind, len) = {
            let o = self.heap.get(id);
            (o.kind(), o.ref_count().max(o.prim_count()))
        };
        if idx < 0 || idx as usize >= len {
            return Err(s.fault(VmError::IndexOutOfBounds {
                method,
                pc: at,
                index: idx,
                len,
            }));
        }
        let addr = self.heap.get(id).addr() + 16 + (idx as u64) * 8;
        s.load(&mut self.meter, addr)?;
        Ok(match kind {
            ObjKind::RefArray => match self.heap.get_ref(id, idx as usize) {
                Some(r) => Value::Ref(r),
                None => Value::Null,
            },
            ObjKind::FloatArray => Value::F(f64::from_bits(self.heap.get_prim(id, idx as usize))),
            _ => Value::I(self.heap.get_prim(id, idx as usize) as i64),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vmprobe_faults::FaultPlan;
    use vmprobe_heap::CollectorKind;
    use vmprobe_platform::PlatformKind;
    use vmprobe_workloads::InputScale;

    use crate::rir::RirBody;
    use crate::{Personality, Vm, VmConfig, VmError};

    /// Run `vm` until its step budget expires and render everything the
    /// engine had changed by then: the machine, the meter's counts, the
    /// bytecode count, the faulting frame and the statics. With `fused`
    /// false, every frame runs a body whose fused stream is its canonical
    /// one.
    fn state_at_budget(mut vm: Vm, fused: bool) -> String {
        if vm.config().personality == Personality::JikesRvm {
            vm.loader.preload_boot_image(&vm.program);
        }
        vm.meter.set_base(vmprobe_power::ComponentId::Application);
        vm.invoke(vm.program.entry()).unwrap();
        while let Some(mut frame) = vm.frames.pop() {
            if !fused && frame.body.fused != frame.body.ops {
                frame.body = Arc::new(RirBody {
                    fused: frame.body.ops.clone(),
                    ..(*frame.body).clone()
                });
            }
            match vm.step(frame) {
                Ok(()) => {}
                Err(VmError::StepBudgetExhausted { .. }) => {
                    let f = vm.frames.last().unwrap();
                    return format!(
                        "{:?} {:?} {} {} {:?} {:?}",
                        vm.meter.machine(),
                        vm.meter.probe_stats(),
                        vm.stats.bytecodes,
                        f.pc,
                        f.window,
                        vm.statics
                    );
                }
                Err(e) => panic!("unexpected fault {e}"),
            }
        }
        panic!("the run ended before its step budget")
    }

    /// A step budget can expire on any component of a fused idiom: the
    /// hot loop then drops the whole trial and the exact path runs the
    /// idiom's ops one at a time up to the expiring one. At every budget
    /// in a window of each benchmark's steady state, on the P6 (Jikes) and
    /// the PXA255 (Kaffe), the machine and the frame at the fault must be
    /// those of a run without fused entries.
    #[test]
    fn budgets_expiring_inside_idioms_leave_the_unfused_state() {
        for name in ["_222_mpegaudio", "_209_db", "fop"] {
            let program = vmprobe_workloads::benchmark(name)
                .unwrap()
                .build(InputScale::Reduced);
            for (platform, config) in [
                (
                    PlatformKind::PentiumM,
                    VmConfig::jikes(CollectorKind::GenCopy, 32 << 20),
                ),
                (PlatformKind::Pxa255, VmConfig::kaffe(16 << 20)),
            ] {
                for budget in 30_000..30_024 {
                    let plan = FaultPlan::parse(&format!("budget={budget}")).unwrap();
                    let vm = || Vm::new(program.clone(), config.platform(platform).faults(plan));
                    assert_eq!(
                        state_at_budget(vm(), true),
                        state_at_budget(vm(), false),
                        "{name} on {platform:?} at budget {budget}"
                    );
                }
            }
        }
    }
}

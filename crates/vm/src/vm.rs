//! The virtual machine: frames, runtime services and their component
//! instrumentation. The execution engine itself lives in `rir::exec`.

use std::sync::Arc;

use vmprobe_bytecode::{MethodId, Program};
use vmprobe_heap::{
    AllocRequest, CollectorKind, CollectorPlan, GcStats, ObjId, ObjectHeap, RootSet,
};
use vmprobe_platform::{Exec, STACK_BASE, VM_BASE};
use vmprobe_power::{analyze, ComponentId, PowerSample, Report, Seconds};

use crate::rir::{RirBody, WindowPool};
use crate::{
    ClassLoader, CompilerStats, CompilerSubsystem, Controller, Meter, Personality, Tier, Value,
    VmConfig, VmError, VmStats,
};

/// Bytes of simulated stack frame per call depth.
const FRAME_STRIDE: u64 = 512;
/// Statics live at the start of the VM data region.
pub(crate) const STATICS_BASE: u64 = VM_BASE;
/// Controller activates every this many scheduler quanta (Jikes).
const CONTROLLER_PERIOD_QUANTA: u64 = 4;
/// Check the incremental collector's trigger every this many allocations.
const INCREMENT_CHECK_MASK: u64 = 63;

/// One activation record: the method's lowered body and its register
/// window.
///
/// `tier` and `code_addr` are snapshotted at invocation and set what
/// every instruction of the activation costs: there is no on-stack
/// replacement.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub(crate) method: MethodId,
    pub(crate) pc: u32,
    pub(crate) stack_addr: u64,
    pub(crate) tier: Tier,
    pub(crate) code_addr: u64,
    /// The method's lowered body (shared with the compiler subsystem).
    pub(crate) body: Arc<RirBody>,
    /// The register window, `body.n_regs` slots: locals in
    /// `window[..n_locals]`, operand slots above.
    pub(crate) window: Vec<Value>,
    /// Operand depth at the save point of the call this frame is
    /// suspended at: the GC-root boundary (registers above it are dead),
    /// and where a callee's return value lands. Meaningless while the
    /// frame is executing.
    pub(crate) live_sp: u16,
}

impl Frame {
    /// The GC-live value slices of this suspended frame:
    /// `(locals, operand stack)`. Registers above `live_sp` hold dead
    /// values and must not become roots (nor ambiguous words under
    /// conservative scanning).
    fn live_slices(&self) -> (&[Value], &[Value]) {
        let l = self.body.n_locals as usize;
        (
            &self.window[..l],
            &self.window[l..l + self.live_sp as usize],
        )
    }

    /// Deliver a callee's return value into this suspended frame: the
    /// register just above the call's save point.
    pub(crate) fn push_return(&mut self, v: Value) {
        let idx = self.body.n_locals as usize + self.live_sp as usize;
        self.window[idx] = v;
    }
}

/// Everything a finished run yields: the measurement report plus runtime
/// statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-component energy/power/performance report (the paper's offline
    /// analysis output).
    pub report: Report,
    /// Collector statistics.
    pub gc: GcStats,
    /// Interpreter/runtime statistics.
    pub vm: VmStats,
    /// Compilation statistics.
    pub compiler: CompilerStats,
    /// Simulated wall-clock duration of the run.
    pub duration: Seconds,
    /// Value returned by the entry method, if any.
    pub result: Option<Value>,
    /// Full 40 µs power trace when [`VmConfig::trace_power`] was set.
    pub power_trace: Option<Vec<PowerSample>>,
    /// Live heap bytes at exit.
    pub live_bytes_end: u64,
    /// Total bytes allocated over the run.
    pub total_alloc_bytes: u64,
    /// Component span trace on the virtual cycle clock when
    /// [`VmConfig::record_spans`] was set (deterministic: a pure function
    /// of the configuration, like every other field here).
    pub spans: Option<vmprobe_telemetry::SpanTrace>,
    /// Bytecodes executed on the register engine. Every tier runs on
    /// it, so this always equals `vm.bytecodes`; the field stays so that
    /// callers reporting register-engine coverage (the benchmark's
    /// `vm.rir_share`) keep building.
    pub rir_bytecodes: u64,
}

/// A configured virtual machine ready to execute one program.
///
/// # Example
///
/// ```
/// use vmprobe_bytecode::ProgramBuilder;
/// use vmprobe_heap::CollectorKind;
/// use vmprobe_vm::{Vm, VmConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = ProgramBuilder::new();
/// let main = p.function("main", 0, 2, |b| {
///     b.const_i(0).store(0);
///     b.for_range(1, 0, 100, |b| {
///         b.load(0).load(1).add().store(0);
///     });
///     b.load(0).ret_value();
/// });
/// let program = p.finish(main)?;
///
/// let vm = Vm::new(program, VmConfig::jikes(CollectorKind::SemiSpace, 1 << 20));
/// let outcome = vm.run()?;
/// assert_eq!(outcome.result.map(|v| v.as_i()), Some(4950));
/// assert!(outcome.duration.seconds() > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct Vm {
    pub(crate) program: Arc<Program>,
    config: VmConfig,
    pub(crate) meter: Meter,
    pub(crate) heap: ObjectHeap,
    pub(crate) plan: Box<dyn CollectorPlan>,
    pub(crate) loader: ClassLoader,
    pub(crate) compilers: CompilerSubsystem,
    controller: Controller,
    pub(crate) statics: Vec<Value>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) stats: VmStats,
    /// Cycle at which the next scheduler quantum runs, compared against
    /// the machine's `f64` accumulator (exact below 2⁵³).
    pub(crate) next_quantum: f64,
    /// Bytecode count at which the run aborts (`u64::MAX` when no budget).
    pub(crate) step_budget: u64,
    /// Allocation count at which heap exhaustion is forced (`u64::MAX`
    /// when no injection).
    fail_alloc_at: u64,
    pub(crate) result: Option<Value>,
    /// Recycled register windows.
    pub(crate) windows: WindowPool,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("config", &self.config)
            .field("plan", &self.plan.name())
            .field("frames", &self.frames.len())
            .field("bytecodes", &self.stats.bytecodes)
            .finish_non_exhaustive()
    }
}

impl Vm {
    /// Build a VM for `program` under `config`.
    ///
    /// # Panics
    ///
    /// Panics when the collector rejects the configured heap; use
    /// [`Vm::try_new`] to get the typed error instead.
    pub fn new(program: Program, config: VmConfig) -> Self {
        Self::try_new(program, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a VM for `program` under `config`, rejecting heaps the
    /// collector cannot lay out with [`VmError::HeapConfig`].
    pub fn try_new(program: Program, config: VmConfig) -> Result<Self, VmError> {
        let mut loader = ClassLoader::new(&program);
        loader.set_verify(config.verify);
        let compilers = CompilerSubsystem::new(&program);
        let statics = vec![Value::Null; program.statics().len()];
        let mut meter = Meter::with_probe(
            config.platform,
            config.trace_power,
            config.dvfs,
            config.faults,
            config.probe,
        );
        if config.record_spans {
            meter.enable_spans();
        }
        let plan = config
            .collector
            .try_new_plan_configured(config.heap_bytes, config.nursery_bytes)
            .map_err(|e| VmError::HeapConfig {
                collector: e.collector.name(),
                required_bytes: e.required_bytes,
                actual_bytes: e.actual_bytes,
            })?;
        let next_quantum = config.quantum_cycles as f64;
        Ok(Self {
            program: Arc::new(program),
            config,
            meter,
            heap: ObjectHeap::new(),
            plan,
            loader,
            compilers,
            controller: Controller::default(),
            statics,
            frames: Vec::new(),
            stats: VmStats::default(),
            next_quantum,
            step_budget: config.faults.step_budget.unwrap_or(u64::MAX),
            fail_alloc_at: config.faults.fail_alloc_at.unwrap_or(u64::MAX),
            result: None,
            windows: WindowPool::default(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Execute the program's entry method to completion and analyze the
    /// run.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] on heap exhaustion, a runtime fault (null
    /// dereference, out-of-bounds access, stack overflow), a rejected
    /// method body, or an entry method that takes arguments.
    pub fn run(mut self) -> Result<RunOutcome, VmError> {
        let entry = self.program.entry();
        let n_args = self.program.method(entry).n_args();
        if n_args != 0 {
            return Err(VmError::EntryTakesArguments {
                method: entry,
                n_args,
            });
        }
        // Boot.
        if self.config.personality == Personality::JikesRvm {
            self.loader.preload_boot_image(&self.program);
        }
        self.meter.set_base(ComponentId::Application);
        self.invoke(entry)?;
        while let Some(frame) = self.frames.pop() {
            self.step(frame)?;
        }
        self.meter.flush_samples();

        // Offline analysis.
        self.stats.classes_loaded = self.loader.classes_loaded;
        self.stats.classfile_bytes_loaded = self.loader.bytes_loaded;
        self.stats.controller_activations = self.controller.activations;
        let gc = *self.plan.stats();
        let compiler = self.compilers.stats;
        let live_bytes_end = self.heap.live_bytes();
        let total_alloc_bytes = self.heap.total_alloc_bytes();
        let power_trace = self.meter.daq().trace().map(<[PowerSample]>::to_vec);
        let spans = self.meter.take_spans();
        let probe_stats = self.meter.probe_stats();
        let (machine, daq, perf) = self.meter.into_parts();
        let mut report = analyze(&daq, &perf, &machine);
        // The analyzer only sees the DAQ's transition exposure; the costs
        // actually paid are the metering adapter's ledger.
        report.probe = probe_stats;
        Ok(RunOutcome {
            duration: report.duration,
            report,
            gc,
            vm: self.stats,
            compiler,
            result: self.result,
            power_trace,
            live_bytes_end,
            total_alloc_bytes,
            spans,
            rir_bytecodes: self.stats.bytecodes,
        })
    }

    /// Call `m`: load its class, compile on first invocation, push a frame.
    ///
    /// The first compile lowers the method to the register IR, so a
    /// structurally unsound body is rejected here with
    /// [`VmError::VerifyRejected`], even when the load-time dataflow tier
    /// is off.
    pub(crate) fn invoke(&mut self, m: MethodId) -> Result<(), VmError> {
        if self.frames.len() >= self.config.max_frames {
            return Err(VmError::StackOverflow {
                limit: self.config.max_frames,
            });
        }
        let program = Arc::clone(&self.program);
        let method = program.method(m);
        self.loader
            .ensure_loaded(&program, method.class(), &mut self.meter)?;

        if self.compilers.method(m).tier == Tier::Uncompiled {
            let jikes = self.config.personality == Personality::JikesRvm;
            self.meter.enter(if jikes {
                ComponentId::BaseCompiler
            } else {
                ComponentId::JitCompiler
            });
            let compiled = if jikes {
                self.compilers
                    .baseline_compile(&program, m, &mut self.meter)
            } else {
                self.compilers.jit_compile(&program, m, &mut self.meter)
            };
            self.meter.exit();
            compiled.map_err(|e| VmError::VerifyRejected {
                class: method.class(),
                reason: e.to_string(),
            })?;
        }
        self.compilers.method_mut(m).hotness += 1;
        self.stats.calls += 1;

        // Tier and code address are snapshotted here: promotion during
        // the activation changes nothing (no OSR).
        let rt = *self.compilers.method(m);
        let body = self.compilers.rir_body(m);
        let mut window = self.windows.acquire(body.n_regs as usize);
        // Transfer arguments into the callee's locals 0..n_args from the
        // caller's registers just above its call save point.
        let n_args = method.n_args() as usize;
        if let Some(caller) = self.frames.last() {
            let base = caller.body.n_locals as usize + caller.live_sp as usize;
            window[..n_args].copy_from_slice(&caller.window[base..base + n_args]);
        }
        let depth = self.frames.len() as u64;
        let stack_addr = STACK_BASE + depth * FRAME_STRIDE;
        for i in 0..n_args as u64 {
            self.meter.store(stack_addr + i * 8);
        }
        self.frames.push(Frame {
            method: m,
            pc: 0,
            stack_addr,
            tier: rt.tier,
            code_addr: rt.code_addr,
            body,
            window,
            live_sp: 0,
        });
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(self.frames.len() as u64);
        Ok(())
    }

    /// Allocate, collecting (and retrying) on exhaustion.
    ///
    /// `cur_locals`/`cur_stack` are the in-flight frame's live window
    /// slices (the run loop pops the executing frame, so it is not in
    /// `self.frames`).
    pub(crate) fn alloc(
        &mut self,
        req: AllocRequest,
        cur_locals: &[Value],
        cur_stack: &[Value],
    ) -> Result<ObjId, VmError> {
        self.stats.allocations += 1;
        if self.stats.allocations >= self.fail_alloc_at {
            return Err(VmError::InjectedOom {
                at_allocation: self.stats.allocations,
            });
        }

        // Kaffe-style incremental marking at allocation sites.
        if self.stats.allocations & INCREMENT_CHECK_MASK == 0 && self.plan.wants_increment() {
            let roots = self.collect_roots(cur_locals, cur_stack);
            self.meter.enter(ComponentId::Gc);
            self.plan.increment(&mut self.heap, &roots, &mut self.meter);
            self.meter.exit();
            self.stats.gc_increments += 1;
        }

        for attempt in 0..3 {
            match self.plan.alloc(&mut self.heap, req, &mut self.meter) {
                Ok(id) => return Ok(id),
                Err(_) if attempt < 2 => {
                    let roots = self.collect_roots(cur_locals, cur_stack);
                    self.meter.enter(ComponentId::Gc);
                    self.plan.collect(&mut self.heap, &roots, &mut self.meter);
                    self.meter.exit();
                    self.stats.gc_requests += 1;
                }
                Err(_) => break,
            }
        }
        Err(VmError::OutOfMemory {
            requested: u64::from(req.size_bytes()),
            heap_bytes: self.config.heap_bytes,
        })
    }

    /// Enumerate roots: statics plus every frame (including the in-flight
    /// one, passed as its live slices), with raw integers passed as
    /// ambiguous words for conservative plans.
    fn collect_roots(&self, cur_locals: &[Value], cur_stack: &[Value]) -> RootSet {
        let conservative = self.config.collector == CollectorKind::KaffeIncremental;
        let mut roots = RootSet::new();
        fn scan(roots: &mut RootSet, conservative: bool, vals: &[Value]) {
            for v in vals {
                match v {
                    Value::Ref(id) => roots.refs.push(*id),
                    Value::I(x) if conservative => roots.ambiguous.push(*x as u64),
                    _ => {}
                }
            }
        }
        for v in &self.statics {
            if let Value::Ref(id) = v {
                roots.refs.push(*id);
            }
        }
        for f in &self.frames {
            let (locals, stack) = f.live_slices();
            scan(&mut roots, conservative, locals);
            scan(&mut roots, conservative, stack);
        }
        scan(&mut roots, conservative, cur_locals);
        scan(&mut roots, conservative, cur_stack);
        roots
    }

    /// Scheduler quantum: timer tick, controller activation, one optimizing
    /// compilation if queued.
    pub(crate) fn quantum(&mut self) {
        self.next_quantum = (self.meter.cycles() + self.config.quantum_cycles) as f64;
        self.stats.quanta += 1;

        self.meter.enter(ComponentId::Scheduler);
        self.meter.int_ops(350);
        self.meter.store(VM_BASE + 0x8000);
        self.meter.load(VM_BASE + 0x8040);
        self.meter.exit();

        if self.config.personality == Personality::JikesRvm {
            if self.stats.quanta.is_multiple_of(CONTROLLER_PERIOD_QUANTA) {
                self.meter.enter(ComponentId::Controller);
                self.controller.scan(
                    &mut self.compilers,
                    self.config.opt_threshold,
                    &mut self.meter,
                );
                self.meter.exit();
            }
            if let Some(m) = self.compilers.opt_queue.pop_front() {
                let program = Arc::clone(&self.program);
                self.meter.enter(ComponentId::OptCompiler);
                self.compilers.opt_compile(&program, m, &mut self.meter);
                self.meter.exit();
            }
        }
    }
}

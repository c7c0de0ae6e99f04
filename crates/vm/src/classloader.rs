//! Lazy class loading with a boot-image split.
//!
//! The paper's two VMs differ sharply here (Section VI-E): Jikes RVM merges
//! system classes into its boot image, so only application classes are
//! loaded at runtime, while Kaffe loads *everything* lazily — "a long
//! initialization period characterized by a high number of calls to the
//! class loader", which makes the class loader the single largest energy
//! consumer (18 % average) for Kaffe on the PXA255.
//!
//! Loading cost is proportional to the modeled class-file size: the loader
//! streams the file (data-cache traffic over the class-file region), parses
//! and verifies each method body (ALU work), builds runtime metadata
//! (stores into the VM region), and walks its own sizeable code footprint
//! (instruction fetch over a region larger than the L1I — the mechanism
//! behind the fetch-stall-bound, low-power class loader the paper observes
//! on the XScale).

use vmprobe_bytecode::{ClassId, Program, Ty};
use vmprobe_platform::{Exec, CLASSFILE_BASE, CODE_BASE, VM_BASE};

use crate::{Meter, VmError};

/// Class-file parse work per class-file byte, in integer µops.
const PARSE_OPS_PER_BYTE: u32 = 2;
/// Verification work per bytecode byte (abstract interpretation), in
/// integer µops.
const VERIFY_OPS_PER_BYTE: u32 = 3;

/// Modeled size of the loader's own code, fetched while parsing. Larger
/// than either platform's 32 KB L1I, so loading produces fetch misses.
const LOADER_CODE_FOOTPRINT: u64 = 48 << 10;
/// Where the loader's code lives in the code region.
const LOADER_CODE_BASE: u64 = CODE_BASE + 0x0100_0000;
/// Where per-class runtime metadata is written.
const METADATA_BASE: u64 = VM_BASE + 0x0010_0000;

/// How a field index maps into the heap object layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSlot {
    /// Whether the field is a traced reference.
    pub is_ref: bool,
    /// Whether a primitive field holds a float (for decoding raw bits).
    pub is_float: bool,
    /// Index into the object's reference or primitive slot array.
    pub slot: u16,
}

/// Runtime state of one class.
#[derive(Debug, Clone)]
pub struct ClassRuntime {
    loaded: bool,
    layout: Vec<FieldSlot>,
    ref_slots: u32,
    prim_slots: u32,
    classfile_addr: u64,
    classfile_bytes: u32,
}

impl ClassRuntime {
    /// Whether the class has been loaded (or was in the boot image).
    pub fn is_loaded(&self) -> bool {
        self.loaded
    }

    /// Field-index → slot mapping.
    #[inline]
    pub fn layout(&self) -> &[FieldSlot] {
        &self.layout
    }

    /// Number of reference slots an instance carries.
    pub fn ref_slots(&self) -> u32 {
        self.ref_slots
    }

    /// Number of primitive slots an instance carries.
    pub fn prim_slots(&self) -> u32 {
        self.prim_slots
    }
}

/// The dynamic class loader.
#[derive(Debug, Clone)]
pub struct ClassLoader {
    classes: Vec<ClassRuntime>,
    /// Classes loaded at runtime (boot-image classes excluded).
    pub classes_loaded: u64,
    /// Class-file bytes streamed at runtime.
    pub bytes_loaded: u64,
    /// Calls into the loader (including fast-path already-loaded checks).
    pub load_calls: u64,
    /// Whether first-load verifies the class's operand types
    /// ([`vmprobe_bytecode::verify_class`]). Host-side only: it charges
    /// zero simulated cycles either way.
    verify: bool,
}

impl ClassLoader {
    /// Precompute layouts and class-file placement for `program`.
    pub fn new(program: &Program) -> Self {
        let mut classes = Vec::with_capacity(program.class_count());
        let mut file_cursor = CLASSFILE_BASE;
        for c in program.classes() {
            let mut layout = Vec::with_capacity(c.field_count());
            let mut ref_slots = 0u32;
            let mut prim_slots = 0u32;
            for f in c.fields() {
                if f.ty() == Ty::Ref {
                    layout.push(FieldSlot {
                        is_ref: true,
                        is_float: false,
                        slot: ref_slots as u16,
                    });
                    ref_slots += 1;
                } else {
                    layout.push(FieldSlot {
                        is_ref: false,
                        is_float: f.ty() == Ty::Float,
                        slot: prim_slots as u16,
                    });
                    prim_slots += 1;
                }
            }
            let bytes = program.classfile_bytes(c.id());
            classes.push(ClassRuntime {
                loaded: false,
                layout,
                ref_slots,
                prim_slots,
                classfile_addr: file_cursor,
                classfile_bytes: bytes,
            });
            file_cursor += u64::from(bytes) + 64;
        }
        Self {
            classes,
            classes_loaded: 0,
            bytes_loaded: 0,
            load_calls: 0,
            verify: true,
        }
    }

    /// Enable/disable the load-time verification tier
    /// ([`crate::VmConfig::verify`]).
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Runtime state for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from the same program.
    #[inline]
    pub fn class(&self, id: ClassId) -> &ClassRuntime {
        &self.classes[id.0 as usize]
    }

    /// Jikes-style boot: mark every system class as present in the boot
    /// image (no runtime loading cost). Kaffe-style VMs skip this.
    pub fn preload_boot_image(&mut self, program: &Program) {
        for c in program.classes() {
            if c.is_system() {
                self.classes[c.id().0 as usize].loaded = true;
            }
        }
    }

    /// Ensure `id` is loaded, charging the loading cost to `meter` inside
    /// the class-loader component. Returns `Ok(true)` when a load
    /// happened, `Ok(false)` on the already-loaded fast path.
    ///
    /// On first load (boot-image classes excluded — they are trusted)
    /// the verifier checks the operand types of every method of the class
    /// (structure was checked when the program was built), and a failure
    /// aborts the load with [`VmError::VerifyRejected`]. The real verifier
    /// replaces the modeled per-byte "verification" charge below only in
    /// *function* — the energy model is unchanged: verification runs
    /// host-side and charges zero simulated cycles, so accepted runs are
    /// bit-identical with verification on or off.
    ///
    /// The caller is responsible for having entered/exiting no component:
    /// this method brackets itself with
    /// [`ComponentId::ClassLoader`](vmprobe_power::ComponentId::ClassLoader).
    pub fn ensure_loaded(
        &mut self,
        program: &Program,
        id: ClassId,
        meter: &mut Meter,
    ) -> Result<bool, VmError> {
        self.load_calls += 1;
        if self.classes[id.0 as usize].loaded {
            // Fast path: a resolved-check costs a couple of ops.
            meter.int_ops(2);
            return Ok(false);
        }
        if self.verify {
            if let Err(e) = vmprobe_bytecode::verify_class(program, id) {
                return Err(VmError::VerifyRejected {
                    class: id,
                    reason: e.to_string(),
                });
            }
        }
        meter.enter(vmprobe_power::ComponentId::ClassLoader);
        let (addr, bytes) = {
            let c = &self.classes[id.0 as usize];
            (c.classfile_addr, c.classfile_bytes)
        };

        // 1. Stream and parse the class file. Parsing is a byte-at-a-time
        // dependency chain through a large switch: short ALU bursts
        // punctuated by instruction fetches over the loader's big footprint
        // (the fetch-stall-bound profile the paper observes on the XScale).
        meter.stream_read(addr, bytes);
        let mut fetched = 0u64;
        let mut remaining = bytes * PARSE_OPS_PER_BYTE;
        while remaining > 0 {
            let chunk = remaining.min(48);
            meter.int_ops(chunk);
            meter.ifetch(LOADER_CODE_BASE + (fetched % LOADER_CODE_FOOTPRINT));
            fetched += 136;
            remaining -= chunk;
        }

        // 2. Verify method bodies.
        let class = program.class(id);
        for &mid in class.methods() {
            let mbytes = program.method(mid).bytecode_bytes();
            let mut remaining = mbytes * VERIFY_OPS_PER_BYTE;
            while remaining > 0 {
                let chunk = remaining.min(48);
                meter.int_ops(chunk);
                meter.ifetch(LOADER_CODE_BASE + (fetched % LOADER_CODE_FOOTPRINT));
                fetched += 136;
                remaining -= chunk;
            }
        }

        // 3. Install runtime metadata.
        meter.stream_write(METADATA_BASE + u64::from(id.0) * 512, 384);

        self.classes[id.0 as usize].loaded = true;
        self.classes_loaded += 1;
        self.bytes_loaded += u64::from(bytes);
        meter.exit();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_bytecode::ProgramBuilder;
    use vmprobe_platform::PlatformKind;
    use vmprobe_power::ComponentId;

    fn sample_program() -> Program {
        let mut p = ProgramBuilder::new();
        let sys = p.class("java/lang/Object").system(true).build();
        let app = p
            .class("App")
            .field("next", Ty::Ref)
            .field("count", Ty::Int)
            .field("data", Ty::Ref)
            .build();
        let main = p.method(app, "main", 0, 0, |b| {
            b.new_obj(sys).pop().ret();
        });
        let _ = p.method(sys, "init", 0, 0, |b| {
            b.ret();
        });
        p.finish(main).unwrap()
    }

    #[test]
    fn layout_splits_ref_and_prim_slots() {
        let prog = sample_program();
        let loader = ClassLoader::new(&prog);
        let app = loader.class(vmprobe_bytecode::ClassId(1));
        assert_eq!(app.ref_slots(), 2);
        assert_eq!(app.prim_slots(), 1);
        assert_eq!(
            app.layout()[0],
            FieldSlot {
                is_ref: true,
                is_float: false,
                slot: 0
            }
        );
        assert_eq!(
            app.layout()[1],
            FieldSlot {
                is_ref: false,
                is_float: false,
                slot: 0
            }
        );
        assert_eq!(
            app.layout()[2],
            FieldSlot {
                is_ref: true,
                is_float: false,
                slot: 1
            }
        );
    }

    #[test]
    fn loading_charges_cost_and_marks_loaded() {
        let prog = sample_program();
        let mut loader = ClassLoader::new(&prog);
        let mut meter = Meter::new(PlatformKind::PentiumM, false);
        let before = meter.cycles();
        assert!(loader
            .ensure_loaded(&prog, vmprobe_bytecode::ClassId(1), &mut meter)
            .unwrap());
        assert!(meter.cycles() > before + 1000);
        assert!(loader.class(vmprobe_bytecode::ClassId(1)).is_loaded());
        assert_eq!(loader.classes_loaded, 1);
        // Second call is a cheap fast path.
        let mid = meter.cycles();
        assert!(!loader
            .ensure_loaded(&prog, vmprobe_bytecode::ClassId(1), &mut meter)
            .unwrap());
        assert!(meter.cycles() - mid < 100);
    }

    #[test]
    fn loading_time_is_attributed_to_the_class_loader() {
        let prog = sample_program();
        let mut loader = ClassLoader::new(&prog);
        let mut meter = Meter::new(PlatformKind::PentiumM, false);
        meter.set_base(ComponentId::Application);
        // Load enough times (different classes would be needed; here the
        // single big class) to cross at least one 40us window.
        loader
            .ensure_loaded(&prog, vmprobe_bytecode::ClassId(0), &mut meter)
            .unwrap();
        loader
            .ensure_loaded(&prog, vmprobe_bytecode::ClassId(1), &mut meter)
            .unwrap();
        meter.flush_samples();
        let r = meter.daq().report();
        // CL work may be under one window; at minimum nothing is attributed
        // to components that never ran.
        assert_eq!(r.component(ComponentId::Gc).samples, 0);
    }

    #[test]
    fn corrupt_class_is_rejected_at_load_time_unless_verification_is_off() {
        let prog = sample_program();
        // Corrupt App::main (class 1): add an Int and a Float merged at a
        // join, consumed by an integer op — the type phase's case, which
        // the structural phase accepts.
        let main = prog.entry();
        let corrupt = prog
            .with_method_code(
                main,
                vec![
                    vmprobe_bytecode::Op::ConstI(1),
                    vmprobe_bytecode::Op::BrFalse(4),
                    vmprobe_bytecode::Op::ConstI(7),
                    vmprobe_bytecode::Op::Jump(5),
                    vmprobe_bytecode::Op::ConstF(7.0),
                    vmprobe_bytecode::Op::ConstI(1),
                    vmprobe_bytecode::Op::Add,
                    vmprobe_bytecode::Op::Pop,
                    vmprobe_bytecode::Op::Ret,
                ],
            )
            .expect("structurally sound");
        let mut loader = ClassLoader::new(&corrupt);
        let mut meter = Meter::new(PlatformKind::PentiumM, false);
        let err = loader
            .ensure_loaded(&corrupt, vmprobe_bytecode::ClassId(1), &mut meter)
            .unwrap_err();
        assert!(matches!(err, VmError::VerifyRejected { class, .. }
            if class == vmprobe_bytecode::ClassId(1)));
        assert!(!loader.class(vmprobe_bytecode::ClassId(1)).is_loaded());
        assert_eq!(loader.classes_loaded, 0);

        // With the verification tier off it loads anyway.
        let mut loader = ClassLoader::new(&corrupt);
        loader.set_verify(false);
        assert!(loader
            .ensure_loaded(&corrupt, vmprobe_bytecode::ClassId(1), &mut meter)
            .unwrap());
    }

    #[test]
    fn boot_image_marks_system_classes_only() {
        let prog = sample_program();
        let mut loader = ClassLoader::new(&prog);
        loader.preload_boot_image(&prog);
        assert!(loader.class(vmprobe_bytecode::ClassId(0)).is_loaded());
        assert!(!loader.class(vmprobe_bytecode::ClassId(1)).is_loaded());
        // Boot-image classes cost nothing at runtime.
        let mut meter = Meter::new(PlatformKind::PentiumM, false);
        assert!(!loader
            .ensure_loaded(&prog, vmprobe_bytecode::ClassId(0), &mut meter)
            .unwrap());
        assert_eq!(loader.classes_loaded, 0);
    }
}

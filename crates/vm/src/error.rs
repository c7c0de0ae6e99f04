//! Runtime errors.

use std::error::Error;
use std::fmt;

use vmprobe_bytecode::{ClassId, MethodId};

/// A fault raised during execution.
///
/// With verified workloads most variants indicate a misconfigured
/// experiment (heap too small for the benchmark's live set) rather than a
/// workload bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The live set does not fit the configured heap: allocation failed
    /// even after a full collection.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Configured heap size.
        heap_bytes: u64,
    },
    /// Dereferenced the null reference.
    NullDereference {
        /// Method executing at the fault.
        method: MethodId,
        /// Instruction index of the fault.
        pc: u32,
    },
    /// Array access out of bounds.
    IndexOutOfBounds {
        /// Method executing at the fault.
        method: MethodId,
        /// Instruction index.
        pc: u32,
        /// Requested index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// `newarray` was given a negative length. The verifier tracks
    /// stack shapes and types, not value ranges, so this can only
    /// be caught at runtime — as a typed fault, not a silent clamp.
    NegativeArrayLength {
        /// Method executing at the fault.
        method: MethodId,
        /// Instruction index of the fault.
        pc: u32,
        /// The negative length popped by the instruction.
        len: i64,
    },
    /// Call stack exceeded the frame limit.
    StackOverflow {
        /// The VM's frame limit.
        limit: usize,
    },
    /// An instruction read a field/slot beyond the object's layout.
    BadSlot {
        /// Method executing at the fault.
        method: MethodId,
        /// Instruction index.
        pc: u32,
        /// Requested slot.
        slot: u16,
    },
    /// The collector rejected the configured heap (too small for its
    /// layout) — the typed form of the old constructor panics.
    HeapConfig {
        /// Collector that rejected the heap.
        collector: &'static str,
        /// Minimum heap the collector's layout needs, in bytes.
        required_bytes: u64,
        /// The heap that was configured, in bytes.
        actual_bytes: u64,
    },
    /// Heap exhaustion forced by the fault plan (`oom@N`) at the Nth
    /// allocation.
    InjectedOom {
        /// The allocation count at which the fault fired.
        at_allocation: u64,
    },
    /// The run exceeded the fault plan's per-run step budget (`budget=N`).
    StepBudgetExhausted {
        /// The configured budget in bytecodes.
        budget: u64,
    },
    /// The class loader's verifier rejected a class: some method failed
    /// the type phase (merge-point type conflict, uninitialized local).
    /// Every program is structurally sound by construction, so nothing
    /// else raises this, and with verification off
    /// ([`VmConfig::verify`]`(false)`) nothing does.
    ///
    /// [`VmConfig::verify`]: crate::VmConfig::verify
    VerifyRejected {
        /// The class whose load was refused.
        class: ClassId,
        /// The verifier's diagnostic, rendered.
        reason: String,
    },
    /// The program's entry method declares arguments, which nothing can
    /// supply.
    EntryTakesArguments {
        /// The entry method.
        method: MethodId,
        /// Its declared argument count.
        n_args: u8,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfMemory {
                requested,
                heap_bytes,
            } => write!(
                f,
                "out of memory: {requested} bytes requested, heap is {heap_bytes} bytes"
            ),
            VmError::NullDereference { method, pc } => {
                write!(f, "null dereference at {method}:{pc}")
            }
            VmError::IndexOutOfBounds {
                method,
                pc,
                index,
                len,
            } => {
                write!(
                    f,
                    "index {index} out of bounds (len {len}) at {method}:{pc}"
                )
            }
            VmError::NegativeArrayLength { method, pc, len } => {
                write!(f, "negative array length {len} at {method}:{pc}")
            }
            VmError::StackOverflow { limit } => {
                write!(f, "call stack exceeded {limit} frames")
            }
            VmError::BadSlot { method, pc, slot } => {
                write!(f, "slot {slot} beyond object layout at {method}:{pc}")
            }
            VmError::HeapConfig {
                collector,
                required_bytes,
                actual_bytes,
            } => write!(
                f,
                "heap misconfigured: {collector} needs at least {required_bytes} bytes, got {actual_bytes}"
            ),
            VmError::InjectedOom { at_allocation } => {
                write!(f, "injected heap exhaustion at allocation {at_allocation}")
            }
            VmError::StepBudgetExhausted { budget } => {
                write!(f, "step budget of {budget} bytecodes exhausted")
            }
            VmError::VerifyRejected { class, reason } => {
                write!(f, "class C{} rejected by the verifier: {reason}", class.0)
            }
            VmError::EntryTakesArguments { method, n_args } => {
                write!(f, "entry method {method} takes {n_args} arguments; it must take none")
            }
        }
    }
}

impl Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = VmError::OutOfMemory {
            requested: 64,
            heap_bytes: 1024,
        };
        assert!(e.to_string().contains("out of memory"));
        let e = VmError::NullDereference {
            method: MethodId(2),
            pc: 7,
        };
        assert!(e.to_string().contains("M2:7"));
        let e = VmError::NegativeArrayLength {
            method: MethodId(3),
            pc: 9,
            len: -4,
        };
        assert!(e.to_string().contains("-4"));
        assert!(e.to_string().contains("M3:9"));
    }
}

//! Bytecode ISA and program model for the `vmprobe` managed runtime.
//!
//! This crate defines the *language substrate* of the reproduction: a compact
//! stack-machine bytecode in the spirit of JVM bytecode, along with the class
//! and method metadata that the class loader, compilers and garbage collectors
//! of the `vmprobe-vm` runtime operate on.
//!
//! The design intentionally mirrors the parts of the Java class-file model
//! that matter for the paper's characterization:
//!
//! * classes with instance fields, static slots and a modeled *class-file
//!   size* (drives class-loading cost),
//! * methods with a modeled *bytecode length* (drives baseline / optimizing /
//!   JIT compilation cost and code-cache footprint),
//! * a verifier, one typed worklist over each method (class loading in real
//!   JVMs verifies bytecode; we model both its safety function and its
//!   cost),
//! * reference-typed fields and arrays so that real object graphs exist for
//!   the garbage collectors to trace.
//!
//! # Example
//!
//! Build a program that sums the integers `0..10` and returns the total:
//!
//! ```
//! use vmprobe_bytecode::{ProgramBuilder, Ty};
//!
//! # fn main() -> Result<(), vmprobe_bytecode::VerifyError> {
//! let mut p = ProgramBuilder::new();
//! let main = p.function("main", 0, 2, |b| {
//!     b.const_i(0).store(0); // acc = 0
//!     b.for_range(1, 0, 10, |b| {
//!         b.load(0).load(1).add().store(0);
//!     });
//!     b.load(0).ret_value();
//! });
//! let program = p.finish(main)?;
//! assert_eq!(program.method(main).name(), "main");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
mod asm;
mod builder;
mod class;
mod disasm;
mod method;
mod opcode;
mod program;
mod verifier;

pub use asm::{assemble, AsmError};
pub use builder::{ClassBuilder, Label, MethodBuilder, ProgramBuilder};
pub use class::{Class, ClassId, FieldDef, StaticDef};
pub use disasm::disassemble;
pub use method::{Method, MethodId};
pub use opcode::{ArrKind, MathFn, Op, Ty};
pub use program::Program;
pub use verifier::{verify_class, verify_method, verify_program, AbsTy, VerifyError};

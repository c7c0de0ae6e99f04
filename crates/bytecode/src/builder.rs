//! Fluent assembler DSL for constructing programs.
//!
//! Workload benchmarks (see the `vmprobe-workloads` crate) are written
//! against this builder: classes with fields, methods with structured
//! control flow, and global static slots that act as GC roots.

use crate::{
    ArrKind, Class, ClassId, MathFn, Method, MethodId, Op, Program, StaticDef, Ty, VerifyError,
};

/// A forward-referenceable jump target inside a [`MethodBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Incrementally builds a [`Program`].
///
/// # Example
///
/// ```
/// use vmprobe_bytecode::{ProgramBuilder, Ty};
///
/// # fn main() -> Result<(), vmprobe_bytecode::VerifyError> {
/// let mut p = ProgramBuilder::new();
/// let node = p.class("Node").field("next", Ty::Ref).build();
/// let main = p.method(node, "main", 0, 1, |b| {
///     b.new_obj(node).store(0);
///     b.ret();
/// });
/// let program = p.finish(main)?;
/// assert_eq!(program.class_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    classes: Vec<Class>,
    methods: Vec<Option<Method>>,
    method_sigs: Vec<(ClassId, String, u8, u8, bool)>,
    statics: Vec<StaticDef>,
    kernel_class: Option<ClassId>,
}

impl ProgramBuilder {
    /// Create an empty program builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start building a class. Finish with [`ClassBuilder::build`].
    pub fn class(&mut self, name: impl Into<String>) -> ClassBuilder<'_> {
        ClassBuilder {
            pb: self,
            name: name.into(),
            fields: Vec::new(),
            system: false,
            extra_classfile_bytes: 0,
        }
    }

    /// Declare a global static slot, returning its index for
    /// [`MethodBuilder::get_static`] / [`MethodBuilder::put_static`].
    pub fn static_slot(&mut self, name: impl Into<String>, ty: Ty) -> u16 {
        let idx = self.statics.len();
        assert!(idx <= u16::MAX as usize, "too many static slots");
        self.statics.push(StaticDef::new(name, ty));
        idx as u16
    }

    /// Declare a method without defining its body yet, enabling forward
    /// references (mutual recursion). `returns_value` must be stated up
    /// front because callers need the signature.
    ///
    /// Define the body later with [`ProgramBuilder::define`].
    pub fn declare(
        &mut self,
        class: ClassId,
        name: impl Into<String>,
        n_args: u8,
        extra_locals: u8,
        returns_value: bool,
    ) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(None);
        self.method_sigs.push((
            class,
            name.into(),
            n_args,
            n_args.saturating_add(extra_locals),
            returns_value,
        ));
        self.classes[class.0 as usize].push_method(id);
        id
    }

    /// Define the body of a previously [`declare`](Self::declare)d method.
    ///
    /// # Panics
    ///
    /// Panics if the method is already defined or uses an unbound label.
    pub fn define(&mut self, id: MethodId, f: impl FnOnce(&mut MethodBuilder)) {
        assert!(
            self.methods[id.0 as usize].is_none(),
            "method {id} defined twice"
        );
        let (class, name, n_args, n_locals, declared_returns) =
            self.method_sigs[id.0 as usize].clone();
        let mut mb = MethodBuilder::new();
        f(&mut mb);
        let code = mb.into_code();
        let returns_value = code.iter().any(|op| matches!(op, Op::RetV));
        // A declared-void method must not use RetV; the verifier reports the
        // reverse direction (declared value, only Ret) as InconsistentReturn.
        let returns_value = declared_returns || returns_value;
        self.methods[id.0 as usize] = Some(Method::new(
            id,
            class,
            name,
            n_args,
            n_locals,
            returns_value,
            code,
        ));
    }

    /// Declare and define a method in one step. Whether it returns a value is
    /// inferred from the presence of [`MethodBuilder::ret_value`] in the body.
    pub fn method(
        &mut self,
        class: ClassId,
        name: impl Into<String>,
        n_args: u8,
        extra_locals: u8,
        f: impl FnOnce(&mut MethodBuilder),
    ) -> MethodId {
        let id = self.declare(class, name, n_args, extra_locals, false);
        self.define(id, f);
        id
    }

    /// Declare and define a free function on an implicit `Kernel` class.
    ///
    /// Convenient for compute kernels that belong to no particular data
    /// class.
    pub fn function(
        &mut self,
        name: impl Into<String>,
        n_args: u8,
        extra_locals: u8,
        f: impl FnOnce(&mut MethodBuilder),
    ) -> MethodId {
        let cls = match self.kernel_class {
            Some(c) => c,
            None => {
                let c = self.class("Kernel").build();
                self.kernel_class = Some(c);
                c
            }
        };
        self.method(cls, name, n_args, extra_locals, f)
    }

    /// Number of methods declared so far.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of classes declared so far.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Seal the program; its constructor checks every method's structure
    /// (verification's phase 1) once. Operand types are judged later, when
    /// the class loader verifies a class.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found: out-of-range branch targets
    /// or locals, operand-stack underflow or join-depth mismatch, a bodiless
    /// method or unminted `entry`, falling off the end of a body, or
    /// inconsistent returns.
    pub fn finish(self, entry: MethodId) -> Result<Program, VerifyError> {
        let mut methods = Vec::with_capacity(self.methods.len());
        for (m, i) in self.methods.into_iter().zip(0..) {
            methods.push(m.ok_or(VerifyError::UndefinedMethod {
                method: MethodId(i),
            })?);
        }
        Program::new(self.classes, methods, self.statics, entry)
    }
}

/// Builds one class; created by [`ProgramBuilder::class`].
#[derive(Debug)]
pub struct ClassBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    name: String,
    fields: Vec<crate::FieldDef>,
    system: bool,
    extra_classfile_bytes: u32,
}

impl ClassBuilder<'_> {
    /// Append an instance field; returns `self` for chaining. Field indices
    /// are assigned in declaration order, starting at 0.
    pub fn field(mut self, name: impl Into<String>, ty: Ty) -> Self {
        self.fields.push(crate::FieldDef::new(name, ty));
        self
    }

    /// Mark the class as a system class (boot-image eligible under a
    /// Jikes-style VM personality).
    pub fn system(mut self, system: bool) -> Self {
        self.system = system;
        self
    }

    /// Add modeled class-file payload bytes beyond fields and code (constant
    /// data, resources); inflates class-loading cost.
    pub fn classfile_padding(mut self, bytes: u32) -> Self {
        self.extra_classfile_bytes = bytes;
        self
    }

    /// Finalize the class and mint its [`ClassId`].
    pub fn build(self) -> ClassId {
        let id = ClassId(self.pb.classes.len() as u16);
        self.pb.classes.push(Class::new(
            id,
            self.name,
            self.fields,
            self.system,
            self.extra_classfile_bytes,
        ));
        id
    }
}

/// Emits the bytecode body of a single method.
///
/// All emit methods return `&mut Self` so instruction sequences chain.
/// Control flow uses [`Label`]s (forward references are patched when the
/// builder is consumed) or the structured helpers [`MethodBuilder::for_range`]
/// and [`MethodBuilder::loop_while`].
#[derive(Debug, Default)]
pub struct MethodBuilder {
    code: Vec<Op>,
    labels: Vec<Option<u32>>,
    fixups: Vec<(usize, Label)>,
}

impl MethodBuilder {
    fn new() -> Self {
        Self::default()
    }

    fn emit(&mut self, op: Op) -> &mut Self {
        self.code.push(op);
        self
    }

    /// Current code index (the pc the next emitted instruction will have).
    pub fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Mint a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `l` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if `l` is already bound.
    pub fn bind(&mut self, l: Label) -> &mut Self {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.here());
        self
    }

    // ---- constants & stack ----

    /// Push an integer constant.
    pub fn const_i(&mut self, v: i64) -> &mut Self {
        self.emit(Op::ConstI(v))
    }
    /// Push a float constant.
    pub fn const_f(&mut self, v: f64) -> &mut Self {
        self.emit(Op::ConstF(v))
    }
    /// Push null.
    pub fn null(&mut self) -> &mut Self {
        self.emit(Op::ConstNull)
    }
    /// Duplicate top of stack.
    pub fn dup(&mut self) -> &mut Self {
        self.emit(Op::Dup)
    }
    /// Pop and discard top of stack.
    pub fn pop(&mut self) -> &mut Self {
        self.emit(Op::Pop)
    }
    /// Swap the two top stack values.
    pub fn swap(&mut self) -> &mut Self {
        self.emit(Op::Swap)
    }
    /// Push local `n`.
    pub fn load(&mut self, n: u8) -> &mut Self {
        self.emit(Op::Load(n))
    }
    /// Pop into local `n`.
    pub fn store(&mut self, n: u8) -> &mut Self {
        self.emit(Op::Store(n))
    }

    // ---- integer ALU ----

    /// Integer add.
    pub fn add(&mut self) -> &mut Self {
        self.emit(Op::Add)
    }
    /// Integer subtract.
    pub fn sub(&mut self) -> &mut Self {
        self.emit(Op::Sub)
    }
    /// Integer multiply.
    pub fn mul(&mut self) -> &mut Self {
        self.emit(Op::Mul)
    }
    /// Integer divide.
    pub fn div(&mut self) -> &mut Self {
        self.emit(Op::Div)
    }
    /// Integer remainder.
    pub fn rem(&mut self) -> &mut Self {
        self.emit(Op::Rem)
    }
    /// Integer negate.
    pub fn neg(&mut self) -> &mut Self {
        self.emit(Op::Neg)
    }
    /// Shift left.
    pub fn shl(&mut self) -> &mut Self {
        self.emit(Op::Shl)
    }
    /// Arithmetic shift right.
    pub fn shr(&mut self) -> &mut Self {
        self.emit(Op::Shr)
    }
    /// Bitwise and.
    pub fn band(&mut self) -> &mut Self {
        self.emit(Op::And)
    }
    /// Bitwise or.
    pub fn bor(&mut self) -> &mut Self {
        self.emit(Op::Or)
    }
    /// Bitwise xor.
    pub fn bxor(&mut self) -> &mut Self {
        self.emit(Op::Xor)
    }

    // ---- float ALU ----

    /// Float add.
    pub fn fadd(&mut self) -> &mut Self {
        self.emit(Op::FAdd)
    }
    /// Float subtract.
    pub fn fsub(&mut self) -> &mut Self {
        self.emit(Op::FSub)
    }
    /// Float multiply.
    pub fn fmul(&mut self) -> &mut Self {
        self.emit(Op::FMul)
    }
    /// Float divide.
    pub fn fdiv(&mut self) -> &mut Self {
        self.emit(Op::FDiv)
    }
    /// Float negate.
    pub fn fneg(&mut self) -> &mut Self {
        self.emit(Op::FNeg)
    }
    /// Long-latency math intrinsic.
    pub fn math(&mut self, f: MathFn) -> &mut Self {
        self.emit(Op::Math(f))
    }
    /// Integer-to-float conversion.
    pub fn i2f(&mut self) -> &mut Self {
        self.emit(Op::I2F)
    }
    /// Float-to-integer conversion.
    pub fn f2i(&mut self) -> &mut Self {
        self.emit(Op::F2I)
    }

    // ---- comparisons ----

    /// Less-than.
    pub fn lt(&mut self) -> &mut Self {
        self.emit(Op::Lt)
    }
    /// Less-or-equal.
    pub fn le(&mut self) -> &mut Self {
        self.emit(Op::Le)
    }
    /// Greater-than.
    pub fn gt(&mut self) -> &mut Self {
        self.emit(Op::Gt)
    }
    /// Greater-or-equal.
    pub fn ge(&mut self) -> &mut Self {
        self.emit(Op::Ge)
    }
    /// Equality.
    pub fn eq(&mut self) -> &mut Self {
        self.emit(Op::Eq)
    }
    /// Inequality.
    pub fn ne(&mut self) -> &mut Self {
        self.emit(Op::Ne)
    }
    /// Null test.
    pub fn is_null(&mut self) -> &mut Self {
        self.emit(Op::IsNull)
    }

    // ---- control flow ----

    /// Unconditional jump to `l`.
    pub fn jump(&mut self, l: Label) -> &mut Self {
        self.fixups.push((self.code.len(), l));
        self.emit(Op::Jump(u32::MAX))
    }
    /// Pop an int; branch to `l` if non-zero.
    pub fn br_true(&mut self, l: Label) -> &mut Self {
        self.fixups.push((self.code.len(), l));
        self.emit(Op::BrTrue(u32::MAX))
    }
    /// Pop an int; branch to `l` if zero.
    pub fn br_false(&mut self, l: Label) -> &mut Self {
        self.fixups.push((self.code.len(), l));
        self.emit(Op::BrFalse(u32::MAX))
    }
    /// Call a method (arguments already on the stack, last on top).
    pub fn call(&mut self, m: MethodId) -> &mut Self {
        self.emit(Op::Call(m))
    }
    /// Return void.
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Op::Ret)
    }
    /// Return the top of stack.
    pub fn ret_value(&mut self) -> &mut Self {
        self.emit(Op::RetV)
    }

    // ---- objects & arrays ----

    /// Allocate an instance and push its reference.
    pub fn new_obj(&mut self, c: ClassId) -> &mut Self {
        self.emit(Op::New(c))
    }
    /// Read instance field `n` of the object on the stack.
    pub fn get_field(&mut self, n: u16) -> &mut Self {
        self.emit(Op::GetField(n))
    }
    /// Write instance field `n` (stack: `obj`, `value`).
    pub fn put_field(&mut self, n: u16) -> &mut Self {
        self.emit(Op::PutField(n))
    }
    /// Read global static slot `n`.
    pub fn get_static(&mut self, n: u16) -> &mut Self {
        self.emit(Op::GetStatic(n))
    }
    /// Write global static slot `n`.
    pub fn put_static(&mut self, n: u16) -> &mut Self {
        self.emit(Op::PutStatic(n))
    }
    /// Allocate an array (length on the stack) and push its reference.
    pub fn new_arr(&mut self, k: ArrKind) -> &mut Self {
        self.emit(Op::NewArr(k))
    }
    /// Load an array element (stack: `arr`, `index`).
    pub fn aload(&mut self) -> &mut Self {
        self.emit(Op::ALoad)
    }
    /// Store an array element (stack: `arr`, `index`, `value`).
    pub fn astore(&mut self) -> &mut Self {
        self.emit(Op::AStore)
    }
    /// Push the length of the array on the stack.
    pub fn arr_len(&mut self) -> &mut Self {
        self.emit(Op::ArrLen)
    }
    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Op::Nop)
    }

    // ---- structured helpers ----

    /// Emit a counted loop: `for local in from..to { body }`.
    ///
    /// The loop variable lives in local slot `local` and is visible to the
    /// body (the body must not clobber it unless it intends to).
    pub fn for_range(
        &mut self,
        local: u8,
        from: i64,
        to: i64,
        body: impl FnOnce(&mut MethodBuilder),
    ) -> &mut Self {
        self.const_i(from).store(local);
        let head = self.label();
        let exit = self.label();
        self.bind(head);
        self.load(local).const_i(to).lt().br_false(exit);
        body(self);
        self.load(local).const_i(1).add().store(local);
        self.jump(head);
        self.bind(exit);
        self
    }

    /// Emit a while loop. `cond` must leave an int on the stack; the loop
    /// body runs while it is non-zero.
    pub fn loop_while(
        &mut self,
        cond: impl FnOnce(&mut MethodBuilder),
        body: impl FnOnce(&mut MethodBuilder),
    ) -> &mut Self {
        let head = self.label();
        let exit = self.label();
        self.bind(head);
        cond(self);
        self.br_false(exit);
        body(self);
        self.jump(head);
        self.bind(exit);
        self
    }

    /// Emit an if/else. `then_blk` and `else_blk` must leave the operand
    /// stack at the same depth. The condition int must already be on the
    /// stack.
    pub fn if_else(
        &mut self,
        then_blk: impl FnOnce(&mut MethodBuilder),
        else_blk: impl FnOnce(&mut MethodBuilder),
    ) -> &mut Self {
        let els = self.label();
        let end = self.label();
        self.br_false(els);
        then_blk(self);
        self.jump(end);
        self.bind(els);
        else_blk(self);
        self.bind(end);
        self
    }

    /// Emit an if with no else. The condition int must already be on the
    /// stack; the block must leave the stack depth unchanged.
    pub fn if_then(&mut self, then_blk: impl FnOnce(&mut MethodBuilder)) -> &mut Self {
        let end = self.label();
        self.br_false(end);
        then_blk(self);
        self.bind(end);
        self
    }

    fn into_code(self) -> Vec<Op> {
        let mut code = self.code;
        for (at, l) in self.fixups {
            let target = self.labels[l.0].expect("jump to unbound label");
            match &mut code[at] {
                Op::Jump(t) | Op::BrTrue(t) | Op::BrFalse(t) => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_helpers_emit_their_ops() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 0, |b| {
            b.const_i(6).const_i(3).band();
            b.const_i(5).bor().const_i(1).bxor().ret_value();
        });
        let prog = p.finish(main).expect("verifies");
        let ops: Vec<_> = prog
            .method(main)
            .code()
            .iter()
            .filter(|o| matches!(o, Op::And | Op::Or | Op::Xor))
            .collect();
        assert_eq!(ops, [&Op::And, &Op::Or, &Op::Xor]);
    }

    #[test]
    fn for_range_counts_correctly_shaped_code() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 4, |b| {
                b.load(0).load(1).add().store(0);
            });
            b.load(0).ret_value();
        });
        let prog = p.finish(main).expect("verifies");
        // 0+1+2+3 shape: loop head compares against 4.
        assert!(prog
            .method(main)
            .code()
            .iter()
            .any(|o| matches!(o, Op::ConstI(4))));
        assert!(prog.method(main).returns_value());
    }

    #[test]
    fn forward_declared_mutual_recursion_verifies() {
        let mut p = ProgramBuilder::new();
        let cls = p.class("Rec").build();
        let is_even = p.declare(cls, "is_even", 1, 0, true);
        let is_odd = p.declare(cls, "is_odd", 1, 0, true);
        p.define(is_even, |b| {
            let base = b.label();
            b.load(0).const_i(0).eq().br_true(base);
            b.load(0).const_i(1).sub().call(is_odd).ret_value();
            b.bind(base);
            b.const_i(1).ret_value();
        });
        p.define(is_odd, |b| {
            let base = b.label();
            b.load(0).const_i(0).eq().br_true(base);
            b.load(0).const_i(1).sub().call(is_even).ret_value();
            b.bind(base);
            b.const_i(0).ret_value();
        });
        assert!(p.finish(is_even).is_ok());
    }

    #[test]
    fn undefined_method_is_rejected() {
        let mut p = ProgramBuilder::new();
        let cls = p.class("C").build();
        let m = p.declare(cls, "ghost", 0, 0, false);
        assert!(matches!(
            p.finish(m),
            Err(VerifyError::UndefinedMethod { .. })
        ));
    }

    #[test]
    fn an_entry_the_builder_never_minted_is_rejected() {
        let empty = ProgramBuilder::new().finish(MethodId(0));
        assert_eq!(
            empty,
            Err(VerifyError::UndefinedMethod {
                method: MethodId(0)
            })
        );
        let mut p = ProgramBuilder::new();
        p.function("main", 0, 0, |b| {
            b.ret();
        });
        assert_eq!(
            p.finish(MethodId(1)),
            Err(VerifyError::UndefinedMethod {
                method: MethodId(1)
            })
        );
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut p = ProgramBuilder::new();
        p.function("m", 0, 0, |b| {
            let l = b.label();
            b.bind(l);
            b.bind(l);
        });
    }

    #[test]
    fn if_else_both_arms_reachable() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 1, 0, |b| {
            b.load(0);
            b.if_else(
                |b| {
                    b.const_i(10);
                },
                |b| {
                    b.const_i(20);
                },
            );
            b.ret_value();
        });
        let prog = p.finish(main).expect("verifies");
        let code = prog.method(main).code();
        assert!(code.iter().any(|o| matches!(o, Op::ConstI(10))));
        assert!(code.iter().any(|o| matches!(o, Op::ConstI(20))));
    }
}

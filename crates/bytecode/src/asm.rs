//! A tiny mnemonic assembler producing **unverified** [`Program`]s.
//!
//! The serving daemon's `verify` operation accepts tenant-submitted
//! bytecode as text; this module is the parser behind it. It is the one
//! sanctioned way to construct a [`Program`] that has *not* passed the
//! builder's verifier — which is exactly the point: the daemon and the
//! analysis crate's dataflow verifier need real invalid programs to
//! reject, and tests need a compact notation for them.
//!
//! **Verify an assembled program before running it.** Run it through
//! `vmprobe-analysis`' `verify_program` first (the daemon does). The
//! runtime rejects a structurally unsound method with a typed error at
//! its first compile even when verification is off, but only the
//! dataflow tier catches ill-typed code.
//!
//! # Notation
//!
//! One directive or instruction per line; `#` and `;` start comments.
//! All programs define a single implicit class named `Kernel`
//! (`ClassId(0)`); the first `.method` is the entry point.
//!
//! ```text
//! .field  next ref        # instance field on the implicit class
//! .static total int       # global static slot
//! .method main 0 2 ret    # name, n_args, n_locals, optional 'ret'
//!     const_i 0
//!     store 0
//! loop:
//!     load 0
//!     const_i 10
//!     lt
//!     brfalse done
//!     load 0
//!     const_i 1
//!     add
//!     store 0
//!     jump loop
//! done:
//!     load 0
//!     ret_value
//! ```
//!
//! Branch targets are label names or raw absolute indices written `@N`
//! (raw targets may dangle — useful for feeding the verifier garbage).
//! `call` takes a method name or `@N`; `get_static`/`put_static` take a
//! static name or a raw slot number; `get_field`/`put_field` a field
//! name or slot number; `new` takes no operand (the implicit class) or
//! `@N` for an arbitrary class id.

use std::fmt;

use crate::{
    ArrKind, Class, ClassId, FieldDef, MathFn, Method, MethodId, Op, Program, StaticDef, Ty,
};

/// A parse failure, with the 1-based source line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending line (0 for end-of-input
    /// errors such as a program with no methods).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// An unresolved branch or call operand.
enum PendingRef {
    /// `jump label` — patched once the method's labels are known.
    Branch { pc: usize, label: String },
    /// `call name` — patched once every method is declared.
    Call { pc: usize, name: String },
}

struct MethodInProgress {
    name: String,
    n_args: u8,
    n_locals: u8,
    returns_value: bool,
    decl_line: usize,
    code: Vec<Op>,
    labels: Vec<(String, u32)>,
    pending: Vec<PendingRef>,
}

/// Assemble `source` into an **unverified** [`Program`].
///
/// # Errors
///
/// Any syntactic defect — unknown mnemonic, malformed operand, duplicate
/// or undefined label, undefined method/static/field name, or a program
/// with no methods — is an [`AsmError`] naming the line. Semantic
/// defects (bad stack shapes, dangling `@N` targets, out-of-range ids)
/// are deliberately *not* errors here: detecting those is the dataflow
/// verifier's job.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut fields: Vec<FieldDef> = Vec::new();
    let mut statics: Vec<StaticDef> = Vec::new();
    let mut methods: Vec<MethodInProgress> = Vec::new();

    let err = |line: usize, message: String| AsmError { line, message };

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = match raw.find(['#', ';']) {
            Some(cut) => &raw[..cut],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }

        // Labels may share a line with an instruction: `loop: load 0`.
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            let (name, after) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !is_ident(name) {
                return Err(err(lineno, format!("bad label name '{name}'")));
            }
            let m = methods
                .last_mut()
                .ok_or_else(|| err(lineno, "label before any .method".into()))?;
            if m.labels.iter().any(|(l, _)| l == name) {
                return Err(err(lineno, format!("duplicate label '{name}'")));
            }
            let at = m.code.len() as u32;
            m.labels.push((name.to_owned(), at));
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        let mut tokens = rest.split_whitespace();
        let head = tokens.next().expect("non-empty line has a token");
        let operands: Vec<&str> = tokens.collect();

        if let Some(directive) = head.strip_prefix('.') {
            parse_directive(
                directive,
                &operands,
                lineno,
                &mut fields,
                &mut statics,
                &mut methods,
            )?;
            continue;
        }

        let m = methods
            .last_mut()
            .ok_or_else(|| err(lineno, format!("instruction '{head}' before any .method")))?;
        let pc = m.code.len();
        let op = parse_instruction(head, &operands, lineno, pc, &fields, &statics, m)?;
        m.code.push(op);
    }

    if methods.is_empty() {
        return Err(err(0, "program declares no .method".into()));
    }

    // Resolve labels and calls, then freeze.
    let names: Vec<String> = methods.iter().map(|m| m.name.clone()).collect();
    let mut frozen: Vec<Method> = Vec::new();
    let mut class = Class::new(ClassId(0), "Kernel".into(), fields, false, 0);
    for (i, m) in methods.iter_mut().enumerate() {
        for pending in &m.pending {
            match pending {
                PendingRef::Branch { pc, label } => {
                    let target = m
                        .labels
                        .iter()
                        .find(|(l, _)| l == label)
                        .map(|(_, at)| *at)
                        .ok_or_else(|| {
                            err(
                                m.decl_line,
                                format!("undefined label '{label}' in '{}'", m.name),
                            )
                        })?;
                    m.code[*pc] = match m.code[*pc] {
                        Op::Jump(_) => Op::Jump(target),
                        Op::BrTrue(_) => Op::BrTrue(target),
                        Op::BrFalse(_) => Op::BrFalse(target),
                        other => unreachable!("pending branch over {other:?}"),
                    };
                }
                PendingRef::Call { pc, name } => {
                    let target = names.iter().position(|n| n == name).ok_or_else(|| {
                        err(m.decl_line, format!("call to undefined method '{name}'"))
                    })?;
                    m.code[*pc] = Op::Call(MethodId(target as u32));
                }
            }
        }
        let id = MethodId(i as u32);
        class.push_method(id);
        frozen.push(Method::new(
            id,
            ClassId(0),
            m.name.clone(),
            m.n_args,
            m.n_locals,
            m.returns_value,
            std::mem::take(&mut m.code),
        ));
    }

    Ok(Program::new(vec![class], frozen, statics, MethodId(0)))
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
}

fn parse_ty(tok: &str, line: usize) -> Result<Ty, AsmError> {
    match tok {
        "int" => Ok(Ty::Int),
        "float" => Ok(Ty::Float),
        "ref" => Ok(Ty::Ref),
        other => Err(AsmError {
            line,
            message: format!("unknown type '{other}' (want int|float|ref)"),
        }),
    }
}

fn parse_directive(
    directive: &str,
    operands: &[&str],
    line: usize,
    fields: &mut Vec<FieldDef>,
    statics: &mut Vec<StaticDef>,
    methods: &mut Vec<MethodInProgress>,
) -> Result<(), AsmError> {
    let err = |message: String| AsmError { line, message };
    match directive {
        "field" | "static" => {
            let [name, ty] = operands else {
                return Err(err(format!(".{directive} wants: name type")));
            };
            if !is_ident(name) {
                return Err(err(format!("bad name '{name}'")));
            }
            let ty = parse_ty(ty, line)?;
            if directive == "field" {
                if !methods.is_empty() {
                    return Err(err(".field must precede every .method".into()));
                }
                fields.push(FieldDef::new(*name, ty));
            } else {
                statics.push(StaticDef::new(*name, ty));
            }
            Ok(())
        }
        "method" => {
            let (sig, returns_value) = match operands {
                [name, a, l] => ((name, a, l), false),
                [name, a, l, "ret"] => ((name, a, l), true),
                _ => {
                    return Err(err(".method wants: name n_args n_locals [ret]".into()));
                }
            };
            let (name, a, l) = sig;
            if !is_ident(name) || methods.iter().any(|m| &m.name == name) {
                return Err(err(format!("bad or duplicate method name '{name}'")));
            }
            let n_args: u8 = a.parse().map_err(|_| err(format!("bad n_args '{a}'")))?;
            let n_locals: u8 = l.parse().map_err(|_| err(format!("bad n_locals '{l}'")))?;
            methods.push(MethodInProgress {
                name: (*name).to_owned(),
                n_args,
                n_locals,
                returns_value,
                decl_line: line,
                code: Vec::new(),
                labels: Vec::new(),
                pending: Vec::new(),
            });
            Ok(())
        }
        other => Err(err(format!("unknown directive '.{other}'"))),
    }
}

/// Parse one instruction. Branch/call operands that need later resolution
/// push a [`PendingRef`] and return a placeholder with target 0.
fn parse_instruction(
    head: &str,
    operands: &[&str],
    line: usize,
    pc: usize,
    fields: &[FieldDef],
    statics: &[StaticDef],
    m: &mut MethodInProgress,
) -> Result<Op, AsmError> {
    let err = |message: String| AsmError { line, message };
    let none = |op: Op| -> Result<Op, AsmError> {
        if operands.is_empty() {
            Ok(op)
        } else {
            Err(err(format!("'{head}' takes no operand")))
        }
    };
    let one = || -> Result<&str, AsmError> {
        match operands {
            [x] => Ok(x),
            _ => Err(err(format!("'{head}' wants exactly one operand"))),
        }
    };
    // `@N` raw numeric reference (branch target, method, class id).
    let raw = |tok: &str| tok.strip_prefix('@').and_then(|n| n.parse::<u32>().ok());

    match head {
        "const_i" => Ok(Op::ConstI(
            one()?
                .parse()
                .map_err(|_| err("const_i wants an integer".into()))?,
        )),
        "const_f" => Ok(Op::ConstF(
            one()?
                .parse()
                .map_err(|_| err("const_f wants a float".into()))?,
        )),
        "const_null" => none(Op::ConstNull),
        "dup" => none(Op::Dup),
        "pop" => none(Op::Pop),
        "swap" => none(Op::Swap),
        "load" | "store" => {
            let slot: u8 = one()?
                .parse()
                .map_err(|_| err(format!("'{head}' wants a local slot 0-255")))?;
            Ok(if head == "load" {
                Op::Load(slot)
            } else {
                Op::Store(slot)
            })
        }
        "add" => none(Op::Add),
        "sub" => none(Op::Sub),
        "mul" => none(Op::Mul),
        "div" => none(Op::Div),
        "rem" => none(Op::Rem),
        "neg" => none(Op::Neg),
        "shl" => none(Op::Shl),
        "shr" => none(Op::Shr),
        "and" => none(Op::And),
        "or" => none(Op::Or),
        "xor" => none(Op::Xor),
        "fadd" => none(Op::FAdd),
        "fsub" => none(Op::FSub),
        "fmul" => none(Op::FMul),
        "fdiv" => none(Op::FDiv),
        "fneg" => none(Op::FNeg),
        "math" => Ok(Op::Math(match one()? {
            "sqrt" => MathFn::Sqrt,
            "sin" => MathFn::Sin,
            "cos" => MathFn::Cos,
            "log" => MathFn::Log,
            "exp" => MathFn::Exp,
            other => return Err(err(format!("unknown math fn '{other}'"))),
        })),
        "i2f" => none(Op::I2F),
        "f2i" => none(Op::F2I),
        "lt" => none(Op::Lt),
        "le" => none(Op::Le),
        "gt" => none(Op::Gt),
        "ge" => none(Op::Ge),
        "eq" => none(Op::Eq),
        "ne" => none(Op::Ne),
        "is_null" => none(Op::IsNull),
        "jump" | "br_true" | "br_false" => {
            let tok = one()?;
            let target = match raw(tok) {
                Some(n) => n,
                None => {
                    if !is_ident(tok) {
                        return Err(err(format!("bad branch target '{tok}'")));
                    }
                    m.pending.push(PendingRef::Branch {
                        pc,
                        label: tok.to_owned(),
                    });
                    0
                }
            };
            Ok(match head {
                "jump" => Op::Jump(target),
                "br_true" => Op::BrTrue(target),
                _ => Op::BrFalse(target),
            })
        }
        "call" => {
            let tok = one()?;
            match raw(tok) {
                Some(n) => Ok(Op::Call(MethodId(n))),
                None => {
                    if !is_ident(tok) {
                        return Err(err(format!("bad call target '{tok}'")));
                    }
                    m.pending.push(PendingRef::Call {
                        pc,
                        name: tok.to_owned(),
                    });
                    Ok(Op::Call(MethodId(0)))
                }
            }
        }
        "ret" => none(Op::Ret),
        "ret_value" => none(Op::RetV),
        "new" => match operands {
            [] => Ok(Op::New(ClassId(0))),
            [tok] => match raw(tok) {
                Some(n) => Ok(Op::New(ClassId(n as u16))),
                None => Err(err(format!("bad class reference '{tok}' (want @N)"))),
            },
            _ => Err(err("'new' wants at most one operand".into())),
        },
        "get_field" | "put_field" | "get_static" | "put_static" => {
            let tok = one()?;
            let table: Vec<&str> = if head.ends_with("field") {
                fields.iter().map(FieldDef::name).collect()
            } else {
                statics.iter().map(StaticDef::name).collect()
            };
            let slot: u16 = if let Ok(n) = tok.parse::<u16>() {
                n
            } else {
                table
                    .iter()
                    .position(|n| *n == tok)
                    .map(|i| i as u16)
                    .ok_or_else(|| err(format!("'{head}' target '{tok}' is not declared")))?
            };
            Ok(match head {
                "get_field" => Op::GetField(slot),
                "put_field" => Op::PutField(slot),
                "get_static" => Op::GetStatic(slot),
                _ => Op::PutStatic(slot),
            })
        }
        "new_arr" => Ok(Op::NewArr(match one()? {
            "int" => ArrKind::Int,
            "float" => ArrKind::Float,
            "ref" => ArrKind::Ref,
            other => return Err(err(format!("unknown array kind '{other}'"))),
        })),
        "a_load" => none(Op::ALoad),
        "a_store" => none(Op::AStore),
        "arr_len" => none(Op::ArrLen),
        "nop" => none(Op::Nop),
        other => Err(err(format!("unknown mnemonic '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_a_loop_with_labels() {
        let p = assemble(
            "
            .static total int
            .method main 0 2 ret
                const_i 0
                store 0
            loop: load 0
                const_i 10
                lt
                br_false done
                load 0
                const_i 1
                add
                store 0
                jump loop
            done:
                load 0
                dup
                put_static total
                ret_value
            ",
        )
        .expect("assembles");
        assert_eq!(p.method_count(), 1);
        assert_eq!(p.statics().len(), 1);
        let code = p.method(MethodId(0)).code();
        assert_eq!(code[5], Op::BrFalse(11));
        assert_eq!(code[10], Op::Jump(2));
        assert_eq!(code[12], Op::Dup);
        assert_eq!(code[13], Op::PutStatic(0));
        // The assembled loop passes the structural verifier too.
        crate::verify_program(&p).expect("structurally valid");
    }

    #[test]
    fn resolves_calls_fields_and_forward_references() {
        let p = assemble(
            "
            .field next ref
            .method main 0 1 ret
                call helper      # forward reference
                ret_value
            .method helper 0 1 ret
                new
                dup
                get_field next
                pop
                ret_value
            ",
        )
        .expect("assembles");
        assert_eq!(p.method(MethodId(0)).code()[0], Op::Call(MethodId(1)));
        assert_eq!(p.method(MethodId(1)).code()[2], Op::GetField(0));
    }

    #[test]
    fn raw_targets_may_dangle() {
        // `@N` operands skip resolution entirely: this is how tests and
        // tenants hand the dataflow verifier garbage to reject.
        let p = assemble(".method main 0 0\n jump @99\n ret").expect("assembles");
        assert_eq!(p.method(MethodId(0)).code()[0], Op::Jump(99));
        assert!(crate::verify_program(&p).is_err(), "dangling target");
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (src, needle) in [
            ("load 0", "before any .method"),
            (".method m 0 0\n frob", "unknown mnemonic"),
            (".method m 0 0\n jump nowhere\n ret", "undefined label"),
            (".method m 0 0\n call ghost\n ret", "undefined method"),
            (".method m 0 0\n get_static missing\n ret", "not declared"),
            (".method m 0 0\n l: nop\n l: nop", "duplicate label"),
            ("", "no .method"),
        ] {
            let e = assemble(src).expect_err(src);
            assert!(e.to_string().contains(needle), "{src}: {e}");
        }
    }
}

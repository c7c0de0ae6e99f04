//! Per-method control-flow graphs.
//!
//! A method body is partitioned into basic blocks at the classic leader
//! points: the entry instruction, every branch target, and every
//! instruction following a branch or terminator. The resulting graph is
//! what the bound computation (longest weighted path over an acyclic
//! graph) walks; verification needs no CFG.
//!
//! Construction assumes the body already passed the verifier's structural
//! phase ([`vmprobe_bytecode::stack_depths`]): every reachable branch
//! target is in range and the body does not fall off the end. An
//! unreachable branch may still dangle; it gets no edge.

use vmprobe_bytecode::{Method, Op};

/// One basic block: a maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct Block {
    /// First instruction index (inclusive).
    pub start: usize,
    /// One past the last instruction index (exclusive).
    pub end: usize,
    /// Successor block indices, in (fallthrough, branch-target) order.
    pub succs: Vec<usize>,
}

impl Block {
    /// Instruction indices of this block.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// The control-flow graph of one method body.
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<Block>,
}

impl Cfg {
    /// Build the CFG for a structurally valid body.
    pub fn new(method: &Method) -> Self {
        let code = method.code();
        let n = code.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, op) in code.iter().enumerate() {
            if let Some(t) = op.branch_target() {
                if (t as usize) < n {
                    leader[t as usize] = true;
                }
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
            } else if op.is_terminator() && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for pc in 0..n {
            if pc > start && leader[pc] {
                blocks.push(Block {
                    start,
                    end: pc,
                    succs: Vec::new(),
                });
                start = pc;
            }
            block_of[pc] = blocks.len();
        }
        if n > 0 {
            blocks.push(Block {
                start,
                end: n,
                succs: Vec::new(),
            });
        }

        for block in &mut blocks {
            let last = block.end - 1;
            let mut succs = Vec::new();
            match code[last] {
                Op::Jump(t) => succs.extend(block_of.get(t as usize)),
                Op::BrTrue(t) | Op::BrFalse(t) => {
                    if last + 1 < n {
                        succs.push(block_of[last + 1]);
                    }
                    succs.extend(block_of.get(t as usize));
                }
                Op::Ret | Op::RetV => {}
                _ => {
                    if last + 1 < n {
                        succs.push(block_of[last + 1]);
                    }
                }
            }
            block.succs = succs;
        }

        Self { blocks }
    }

    /// The blocks, in instruction order (block 0 is the entry).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Whether any cycle is reachable from the entry, plus a reverse
    /// post-order over the reachable blocks (a valid topological order
    /// when the graph is acyclic).
    pub fn cycle_and_order(&self) -> (bool, Vec<usize>) {
        // Iterative three-color DFS: a gray→gray edge is a back edge.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.blocks.len()];
        let mut post = Vec::new();
        let mut cyclic = false;
        if self.blocks.is_empty() {
            return (false, post);
        }
        // Stack entries are (block, next-successor index to visit).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = GRAY;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < self.blocks[b].succs.len() {
                let s = self.blocks[b].succs[*next];
                *next += 1;
                match color[s] {
                    WHITE => {
                        color[s] = GRAY;
                        stack.push((s, 0));
                    }
                    GRAY => cyclic = true,
                    _ => {}
                }
            } else {
                color[b] = BLACK;
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        (cyclic, post)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_bytecode::ProgramBuilder;

    #[test]
    fn straight_line_is_one_block() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 1, |b| {
            b.const_i(1).store(0).ret();
        });
        let prog = p.finish(main).unwrap();
        let cfg = Cfg::new(prog.method(main));
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.blocks()[0].succs.is_empty());
        let (cyclic, order) = cfg.cycle_and_order();
        assert!(!cyclic);
        assert_eq!(order, vec![0]);
    }

    #[test]
    fn diamond_has_four_blocks_and_no_cycle() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 1, |b| {
            b.const_i(1);
            b.if_else(
                |b| {
                    b.const_i(2).store(0);
                },
                |b| {
                    b.const_i(3).store(0);
                },
            );
            b.ret();
        });
        let prog = p.finish(main).unwrap();
        let cfg = Cfg::new(prog.method(main));
        let (cyclic, order) = cfg.cycle_and_order();
        assert!(!cyclic);
        assert!(cfg.blocks().len() >= 4, "blocks: {}", cfg.blocks().len());
        assert_eq!(order.len(), cfg.blocks().len(), "every block is reachable");
    }

    #[test]
    fn loops_are_detected_as_cycles() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 10, |b| {
                b.load(0).load(1).add().store(0);
            });
            b.ret();
        });
        let prog = p.finish(main).unwrap();
        let cfg = Cfg::new(prog.method(main));
        let (cyclic, _) = cfg.cycle_and_order();
        assert!(cyclic);
    }

    #[test]
    fn a_dangling_unreachable_branch_gets_no_edge() {
        // The verifier judges reachable code only, so this verifies; the
        // CFG once indexed past its block table here.
        let prog = vmprobe_bytecode::assemble(".method main 0 0\n ret\n jump @99\n").unwrap();
        vmprobe_bytecode::verify_program(&prog).expect("unreachable code is not judged");
        let cfg = Cfg::new(prog.method(prog.entry()));
        assert_eq!(cfg.blocks().len(), 2);
        assert!(cfg.blocks()[1].succs.is_empty());
    }
}

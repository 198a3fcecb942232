//! Compiling flat-CFG IR to bytecode (the project's "LLVM backend").
//!
//! Accepts modules whose functions are fully lowered: `arith` + `cf` +
//! `func` ops plus the *data* subset of `lp` (constants, constructors,
//! projections, closures, refcounting). Region-carrying ops are rejected —
//! run the `lssa-core` lowerings first.

use crate::bytecode::{BinOp, CompiledFn, CompiledProgram, Instr, Reg};
use lssa_ir::attr::AttrKey;
use lssa_ir::body::{Body, ROOT_REGION};
use lssa_ir::ids::{BlockId, Symbol, ValueId};
use lssa_ir::module::Module;
use lssa_ir::opcode::Opcode;
use lssa_rt::{Builtin, Nat};
use std::collections::HashMap;
use std::fmt;

/// A compilation failure (unsupported shape reaching the backend).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytecode compilation error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

fn err(message: impl Into<String>) -> CompileError {
    CompileError {
        message: message.into(),
    }
}

/// Compiles a lowered module to bytecode.
///
/// # Errors
///
/// Returns an error if an op that requires further lowering (regions,
/// `lp.switch`, `rgn.*`) reaches the backend.
pub fn compile_module(module: &Module) -> Result<CompiledProgram, CompileError> {
    let mut program = CompiledProgram::default();
    // User functions get VM indices in module order.
    let mut fn_indices: HashMap<Symbol, u32> = HashMap::new();
    let mut next = 0u32;
    for f in &module.funcs {
        if !f.is_extern() {
            fn_indices.insert(f.name, next);
            next += 1;
        }
    }
    for g in &module.globals {
        program.globals.push(module.name_of(g.name).to_string());
    }
    for f in &module.funcs {
        let Some(body) = &f.body else { continue };
        let compiled = FnCompiler {
            module,
            body,
            fn_indices: &fn_indices,
            program: &mut program,
            regs: HashMap::new(),
            next_reg: 0,
        }
        .compile(module.name_of(f.name), f.sig.params.len())?;
        program.fns.push(compiled);
    }
    Ok(program)
}

struct FnCompiler<'a> {
    module: &'a Module,
    body: &'a Body,
    fn_indices: &'a HashMap<Symbol, u32>,
    program: &'a mut CompiledProgram,
    regs: HashMap<ValueId, Reg>,
    next_reg: u32,
}

impl FnCompiler<'_> {
    fn reg(&mut self, v: ValueId) -> Reg {
        if let Some(&r) = self.regs.get(&v) {
            return r;
        }
        let r = Reg(u16::try_from(self.next_reg).expect("register file exhausted"));
        self.next_reg += 1;
        self.regs.insert(v, r);
        r
    }

    fn fresh_reg(&mut self) -> Reg {
        let r = Reg(u16::try_from(self.next_reg).expect("register file exhausted"));
        self.next_reg += 1;
        r
    }

    fn callee_of(&self, op: lssa_ir::ids::OpId) -> Result<Symbol, CompileError> {
        self.body.ops[op.index()]
            .attr(AttrKey::Callee)
            .and_then(|a| a.as_sym())
            .ok_or_else(|| err("call without callee"))
    }

    fn compile(mut self, name: &str, arity: usize) -> Result<CompiledFn, CompileError> {
        // Parameters occupy registers 0..arity.
        for &p in self.body.params() {
            self.reg(p);
        }
        debug_assert_eq!(self.next_reg as usize, arity);
        let blocks = self.body.regions[ROOT_REGION.index()].blocks.clone();
        let mut code: Vec<Instr> = Vec::new();
        let mut block_offsets: HashMap<BlockId, usize> = HashMap::new();
        // Fixups: (instruction index, which target slot, destination block).
        let mut fixups: Vec<(usize, usize, BlockId)> = Vec::new();
        for &block in &blocks {
            block_offsets.insert(block, code.len());
            for &op in &self.body.blocks[block.index()].ops.clone() {
                self.compile_op(op, &mut code, &mut fixups)?;
            }
        }
        for (at, slot, dest) in fixups {
            let target = *block_offsets
                .get(&dest)
                .ok_or_else(|| err(format!("branch to unplaced block {dest}")))?;
            patch_target(&mut code[at], slot, target);
        }
        Ok(CompiledFn {
            name: name.to_string(),
            arity: arity as u16,
            n_regs: u16::try_from(self.next_reg).expect("register file exhausted"),
            code,
        })
    }

    /// Emits moves realizing a branch's argument transfer, then returns the
    /// destination block. Uses temporaries for a safe parallel move.
    fn emit_edge(
        &mut self,
        code: &mut Vec<Instr>,
        dest: BlockId,
        args: &[ValueId],
    ) -> Result<(), CompileError> {
        if args.is_empty() {
            return Ok(());
        }
        let params = self.body.blocks[dest.index()].args.clone();
        let srcs: Vec<Reg> = args.iter().map(|&a| self.reg(a)).collect();
        let dsts: Vec<Reg> = params.iter().map(|&p| self.reg(p)).collect();
        // Fast path: no destination is also a source — plain moves suffice.
        let conflict = dsts.iter().any(|d| srcs.contains(d));
        if !conflict {
            for (&dst, &src) in dsts.iter().zip(&srcs) {
                if dst != src {
                    code.push(Instr::Move { dst, src });
                }
            }
            return Ok(());
        }
        // General parallel move: stage through temporaries.
        let temps: Vec<Reg> = srcs
            .iter()
            .map(|&src| {
                let t = self.fresh_reg();
                code.push(Instr::Move { dst: t, src });
                t
            })
            .collect();
        for (&dst, t) in dsts.iter().zip(temps) {
            code.push(Instr::Move { dst, src: t });
        }
        Ok(())
    }

    fn compile_op(
        &mut self,
        op: lssa_ir::ids::OpId,
        code: &mut Vec<Instr>,
        fixups: &mut Vec<(usize, usize, BlockId)>,
    ) -> Result<(), CompileError> {
        use Opcode::*;
        let data = &self.body.ops[op.index()];
        let opcode = data.opcode;
        let operands = data.operands().clone();
        let result = data.results.first().copied();
        let srcs: Vec<Reg> = operands.iter().map(|&v| self.reg(v)).collect();
        match opcode {
            ConstI => {
                let v = self.body.ops[op.index()]
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| err("constant without value"))?;
                let ty = self.body.value_type(result.unwrap());
                // i8/i1 raw values are kept zero-extended.
                let v = match ty.bit_width() {
                    Some(bits) if bits < 64 => v & ((1i64 << bits) - 1),
                    _ => v,
                };
                let dst = self.reg(result.unwrap());
                code.push(Instr::ConstInt { dst, v });
            }
            AddI | SubI | MulI | DivI | RemI | AndI | OrI | XorI => {
                let binop = match opcode {
                    AddI => BinOp::Add,
                    SubI => BinOp::Sub,
                    MulI => BinOp::Mul,
                    DivI => BinOp::Div,
                    RemI => BinOp::Rem,
                    AndI => BinOp::And,
                    OrI => BinOp::Or,
                    XorI => BinOp::Xor,
                    _ => unreachable!(),
                };
                let dst = self.reg(result.unwrap());
                code.push(Instr::Bin {
                    op: binop,
                    dst,
                    a: srcs[0],
                    b: srcs[1],
                });
            }
            CmpI => {
                let pred = self.body.ops[op.index()]
                    .attr(AttrKey::Pred)
                    .and_then(|a| a.as_pred())
                    .ok_or_else(|| err("cmpi without predicate"))?;
                let dst = self.reg(result.unwrap());
                code.push(Instr::Cmp {
                    pred,
                    dst,
                    a: srcs[0],
                    b: srcs[1],
                });
            }
            Select => {
                let dst = self.reg(result.unwrap());
                code.push(Instr::Select {
                    dst,
                    c: srcs[0],
                    a: srcs[1],
                    b: srcs[2],
                });
            }
            ExtUI | TruncI => {
                let to = self.body.value_type(result.unwrap());
                let dst = self.reg(result.unwrap());
                let mask = match to.bit_width() {
                    Some(bits) if bits < 64 => (1u64 << bits) - 1,
                    _ => u64::MAX,
                };
                code.push(Instr::Mask {
                    dst,
                    src: srcs[0],
                    mask,
                });
            }
            Br => {
                let succ = self.body.ops[op.index()].successors()[0].clone();
                self.emit_edge(code, succ.block, &succ.args)?;
                fixups.push((code.len(), 0, succ.block));
                code.push(Instr::Jump { target: usize::MAX });
            }
            CondBr => {
                let succs = self.body.ops[op.index()].successors().clone();
                // Edge trampolines handle per-edge argument transfer.
                let branch_at = code.len();
                code.push(Instr::Branch {
                    cond: srcs[0],
                    then_t: usize::MAX,
                    else_t: usize::MAX,
                });
                for (slot, s) in succs.iter().enumerate() {
                    if s.args.is_empty() {
                        fixups.push((branch_at, slot, s.block));
                    } else {
                        let tramp = code.len();
                        patch_target(&mut code[branch_at], slot, tramp);
                        self.emit_edge(code, s.block, &s.args)?;
                        fixups.push((code.len(), 0, s.block));
                        code.push(Instr::Jump { target: usize::MAX });
                    }
                }
            }
            SwitchBr => {
                let cases = self.body.ops[op.index()]
                    .attr(AttrKey::Cases)
                    .and_then(|a| a.as_int_list())
                    .ok_or_else(|| err("switch without cases"))?
                    .to_vec();
                let succs = self.body.ops[op.index()].successors().clone();
                let switch_at = code.len();
                code.push(Instr::Switch {
                    idx: srcs[0],
                    cases: cases.iter().map(|&c| (c, usize::MAX)).collect(),
                    default: usize::MAX,
                });
                for (slot, s) in succs.iter().enumerate() {
                    if s.args.is_empty() {
                        fixups.push((switch_at, slot, s.block));
                    } else {
                        let tramp = code.len();
                        patch_target(&mut code[switch_at], slot, tramp);
                        self.emit_edge(code, s.block, &s.args)?;
                        fixups.push((code.len(), 0, s.block));
                        code.push(Instr::Jump { target: usize::MAX });
                    }
                }
            }
            Unreachable => code.push(Instr::Trap),
            Call | TailCall => {
                let callee = self.callee_of(op)?;
                let name = self.module.name_of(callee);
                if let Some(&func) = self.fn_indices.get(&callee) {
                    if opcode == Call {
                        let dst = self.reg(result.unwrap());
                        code.push(Instr::Call {
                            dst,
                            func,
                            args: srcs,
                        });
                    } else {
                        code.push(Instr::TailCall { func, args: srcs });
                    }
                } else {
                    let builtin: Builtin = name
                        .parse()
                        .map_err(|_| err(format!("call to unknown extern @{name}")))?;
                    let mask = self.body.ops[op.index()]
                        .attr(AttrKey::BorrowMask)
                        .and_then(|a| a.as_int())
                        .unwrap_or(0) as u8;
                    if opcode == Call {
                        let dst = self.reg(result.unwrap());
                        code.push(Instr::CallBuiltin {
                            dst,
                            builtin,
                            args: srcs,
                            mask,
                        });
                    } else {
                        let dst = self.fresh_reg();
                        code.push(Instr::CallBuiltin {
                            dst,
                            builtin,
                            args: srcs,
                            mask,
                        });
                        code.push(Instr::Ret { src: dst });
                    }
                }
            }
            Return => code.push(Instr::Ret { src: srcs[0] }),
            LpInt => {
                let v = self.body.ops[op.index()]
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| err("lp.int without value"))?;
                let dst = self.reg(result.unwrap());
                code.push(Instr::LpInt { dst, v });
            }
            LpBigInt => {
                let digits = self.body.ops[op.index()]
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_str())
                    .ok_or_else(|| err("lp.bigint without value"))?;
                let n = Nat::from_str_decimal(digits)
                    .map_err(|e| err(format!("bad bigint literal: {e}")))?;
                let idx = self.program.big_pool.len() as u32;
                self.program.big_pool.push(n);
                let dst = self.reg(result.unwrap());
                code.push(Instr::LpBig { dst, idx });
            }
            LpStr => {
                let s = self.body.ops[op.index()]
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_str())
                    .ok_or_else(|| err("lp.str without value"))?
                    .to_string();
                let idx = self.program.str_pool.len() as u32;
                self.program.str_pool.push(s);
                let dst = self.reg(result.unwrap());
                code.push(Instr::LpStr { dst, idx });
            }
            LpConstruct => {
                let tag = self.body.ops[op.index()]
                    .attr(AttrKey::Tag)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| err("lp.construct without tag"))?;
                if !(0..128).contains(&tag) {
                    return Err(err(format!("constructor tag {tag} out of range")));
                }
                let dst = self.reg(result.unwrap());
                code.push(Instr::Construct {
                    dst,
                    tag: tag as u32,
                    args: srcs,
                });
            }
            LpGetLabel => {
                let dst = self.reg(result.unwrap());
                code.push(Instr::GetLabel { dst, src: srcs[0] });
            }
            LpProject => {
                let idx = self.body.ops[op.index()]
                    .attr(AttrKey::Index)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| err("lp.project without index"))?;
                let dst = self.reg(result.unwrap());
                code.push(Instr::Project {
                    dst,
                    src: srcs[0],
                    idx: idx as u32,
                });
            }
            LpPap => {
                let callee = self.callee_of(op)?;
                let arity = self.body.ops[op.index()]
                    .attr(AttrKey::Arity)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| err("lp.pap without arity"))?;
                let &func = self
                    .fn_indices
                    .get(&callee)
                    .ok_or_else(|| err("pap of extern function"))?;
                let dst = self.reg(result.unwrap());
                code.push(Instr::Pap {
                    dst,
                    func,
                    arity: arity as u16,
                    args: srcs,
                });
            }
            LpPapExtend => {
                let dst = self.reg(result.unwrap());
                code.push(Instr::PapExtend {
                    dst,
                    closure: srcs[0],
                    args: srcs[1..].to_vec(),
                });
            }
            LpInc => code.push(Instr::Inc { src: srcs[0] }),
            LpDec => code.push(Instr::Dec { src: srcs[0] }),
            LpGlobalLoad | LpGlobalStore => {
                let g = self.body.ops[op.index()]
                    .attr(AttrKey::Global)
                    .and_then(|a| a.as_sym())
                    .ok_or_else(|| err("global op without symbol"))?;
                let name = self.module.name_of(g);
                let idx = self
                    .program
                    .globals
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| err(format!("unknown global @{name}")))?
                    as u32;
                if opcode == LpGlobalLoad {
                    let dst = self.reg(result.unwrap());
                    code.push(Instr::GlobalLoad { dst, idx });
                } else {
                    code.push(Instr::GlobalStore { idx, src: srcs[0] });
                }
            }
            _ => {
                return Err(err(format!(
                    "{opcode} requires lowering before bytecode compilation"
                )))
            }
        }
        Ok(())
    }
}

fn patch_target(instr: &mut Instr, slot: usize, target: usize) {
    match instr {
        Instr::Jump { target: t } => *t = target,
        Instr::Branch { then_t, else_t, .. } => {
            if slot == 0 {
                *then_t = target;
            } else {
                *else_t = target;
            }
        }
        Instr::Switch { cases, default, .. } => {
            if slot < cases.len() {
                cases[slot].1 = target;
            } else {
                *default = target;
            }
        }
        other => panic!("cannot patch target of {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lssa_ir::builder::Builder;
    use lssa_ir::types::{Signature, Type};

    #[test]
    fn compiles_simple_function() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let one = b.lp_int(1);
        b.lp_inc(params[0]);
        let c = b.lp_construct(1, vec![params[0], one]);
        b.ret(c);
        m.add_function("mk", Signature::obj(1), body);
        let p = compile_module(&m).unwrap();
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].arity, 1);
        assert!(matches!(p.fns[0].code[0], Instr::LpInt { .. }));
        assert!(matches!(p.fns[0].code.last(), Some(Instr::Ret { .. })));
    }

    #[test]
    fn rejects_unlowered_ops() {
        let mut m = Module::new();
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, inner);
            let v = ib.lp_int(0);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(rv, vec![]);
        m.add_function("f", Signature::obj(0), body);
        let e = compile_module(&m).unwrap_err();
        assert!(e.message.contains("requires lowering"), "{e}");
    }

    #[test]
    fn branch_targets_resolved() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let t = body.new_block(ROOT_REGION, &[]);
        let e2 = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        b.cond_br(params[0], (t, vec![]), (e2, vec![]));
        let mut bt = Builder::at_end(&mut body, t);
        let v = bt.lp_int(1);
        bt.ret(v);
        let mut be = Builder::at_end(&mut body, e2);
        let v = be.lp_int(2);
        be.ret(v);
        m.add_function("f", Signature::new(vec![Type::I1], Type::Obj), body);
        let p = compile_module(&m).unwrap();
        let code = &p.fns[0].code;
        let Instr::Branch { then_t, else_t, .. } = code[0] else {
            panic!("expected branch, got {:?}", code[0]);
        };
        assert!(then_t < code.len() && else_t < code.len());
        assert_ne!(then_t, else_t);
        assert_ne!(then_t, usize::MAX);
    }

    #[test]
    fn block_args_become_moves() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let join = body.new_block(ROOT_REGION, &[Type::Obj]);
        let mut b = Builder::at_end(&mut body, entry);
        b.br(join, vec![params[0]]);
        let arg = body.blocks[join.index()].args[0];
        let mut bj = Builder::at_end(&mut body, join);
        bj.ret(arg);
        m.add_function("f", Signature::obj(1), body);
        let p = compile_module(&m).unwrap();
        let moves = p.fns[0]
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Move { .. }))
            .count();
        // Non-conflicting edge: a single direct move.
        assert_eq!(moves, 1);
    }
}

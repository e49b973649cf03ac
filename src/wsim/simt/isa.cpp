#include "wsim/simt/isa.hpp"

#include <sstream>

#include "wsim/util/check.hpp"

namespace wsim::simt {

std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kMov: return "mov";
    case Op::kTid: return "tid";
    case Op::kLaneId: return "laneid";
    case Op::kWarpId: return "warpid";
    case Op::kFAdd: return "fadd";
    case Op::kFSub: return "fsub";
    case Op::kFMul: return "fmul";
    case Op::kFFma: return "ffma";
    case Op::kFMax: return "fmax";
    case Op::kFMin: return "fmin";
    case Op::kIAdd: return "iadd";
    case Op::kISub: return "isub";
    case Op::kIMul: return "imul";
    case Op::kIMax: return "imax";
    case Op::kIMin: return "imin";
    case Op::kIAnd: return "iand";
    case Op::kIOr: return "ior";
    case Op::kIXor: return "ixor";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kSetp: return "setp";
    case Op::kSelp: return "selp";
    case Op::kShfl: return "shfl";
    case Op::kShflUp: return "shfl.up";
    case Op::kShflDown: return "shfl.down";
    case Op::kShflXor: return "shfl.xor";
    case Op::kLds: return "lds";
    case Op::kSts: return "sts";
    case Op::kLdg: return "ldg";
    case Op::kStg: return "stg";
    case Op::kBar: return "bar.sync";
    case Op::kSMov: return "smov";
    case Op::kSAdd: return "sadd";
    case Op::kSSub: return "ssub";
    case Op::kSMul: return "smul";
    case Op::kSMin: return "smin";
    case Op::kSMax: return "smax";
    case Op::kLoop: return "loop";
    case Op::kEndLoop: return "endloop";
    case Op::kOpCount: break;
  }
  return "invalid";
}

namespace {

bool is_scalar_op(Op op) noexcept {
  switch (op) {
    case Op::kSMov:
    case Op::kSAdd:
    case Op::kSSub:
    case Op::kSMul:
    case Op::kSMin:
    case Op::kSMax:
      return true;
    default:
      return false;
  }
}

void validate_operand(const Kernel& k, const Operand& operand, const char* what) {
  switch (operand.kind) {
    case Operand::Kind::kNone:
    case Operand::Kind::kImmediate:
      return;
    case Operand::Kind::kVector:
      util::require(operand.reg >= 0 && operand.reg < k.vreg_count(),
                    std::string("vector operand out of range in ") + what);
      return;
    case Operand::Kind::kScalar:
      util::require(operand.reg >= 0 && operand.reg < k.sreg_count(),
                    std::string("scalar operand out of range in ") + what);
      return;
  }
}

std::string operand_str(const Operand& operand) {
  // Built via += rather than `"x" + std::to_string(...)` to sidestep the
  // GCC 12 libstdc++ -Wrestrict false positive (GCC bug 105651).
  std::string out;
  switch (operand.kind) {
    case Operand::Kind::kNone:
      return "_";
    case Operand::Kind::kVector:
      out = "v";
      out += std::to_string(operand.reg);
      return out;
    case Operand::Kind::kScalar:
      out = "s";
      out += std::to_string(operand.reg);
      return out;
    case Operand::Kind::kImmediate:
      out = "#";
      out += std::to_string(static_cast<long long>(operand.imm));
      return out;
  }
  return "?";
}

}  // namespace

void validate(const Kernel& kernel) {
  util::require(kernel.threads_per_block() > 0 && kernel.threads_per_block() % 32 == 0,
                "kernel threads_per_block must be a positive multiple of 32");
  int loop_depth = 0;
  for (const Instr& ins : kernel.code()) {
    validate_operand(kernel, ins.a, kernel.name().c_str());
    validate_operand(kernel, ins.b, kernel.name().c_str());
    validate_operand(kernel, ins.c, kernel.name().c_str());
    if (ins.pred >= 0) {
      util::require(ins.pred < kernel.vreg_count(), "predicate register out of range");
    }
    if (ins.dst >= 0) {
      if (is_scalar_op(ins.op)) {
        util::require(ins.dst < kernel.sreg_count(), "scalar dst out of range");
      } else {
        util::require(ins.dst < kernel.vreg_count(), "vector dst out of range");
      }
    }
    if (ins.op == Op::kLoop) {
      util::require(ins.a.kind == Operand::Kind::kScalar ||
                        ins.a.kind == Operand::Kind::kImmediate,
                    "loop trip count must be scalar or immediate");
      ++loop_depth;
    } else if (ins.op == Op::kEndLoop) {
      util::require(loop_depth > 0, "endloop without matching loop");
      --loop_depth;
    }
  }
  util::require(loop_depth == 0, "unterminated loop region");
}

std::string disassemble(const Kernel& kernel) {
  std::ostringstream oss;
  oss << ".kernel " << kernel.name() << " threads=" << kernel.threads_per_block()
      << " vregs=" << kernel.vreg_count() << " sregs=" << kernel.sreg_count()
      << " smem=" << kernel.smem_bytes() << "\n";
  int indent = 0;
  for (const Instr& ins : kernel.code()) {
    if (ins.op == Op::kEndLoop) {
      --indent;
    }
    for (int i = 0; i < indent + 1; ++i) {
      oss << "  ";
    }
    if (ins.pred >= 0) {
      oss << (ins.pred_negate ? "@!p" : "@p") << ins.pred << ' ';
    }
    oss << to_string(ins.op);
    if (ins.dst >= 0) {
      oss << ' ' << (is_scalar_op(ins.op) ? 's' : 'v') << ins.dst << ',';
    }
    oss << ' ' << operand_str(ins.a) << ", " << operand_str(ins.b) << ", "
        << operand_str(ins.c) << '\n';
    if (ins.op == Op::kLoop) {
      ++indent;
    }
  }
  return oss.str();
}

}  // namespace wsim::simt

#include "cyclick/compiler/bytecode.hpp"

#include <sstream>

#include "cyclick/obs/metrics.hpp"

namespace cyclick::dsl::bc {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kScalarVar: return "svar";
    case Op::kReduceSec: return "sreduce";
    case Op::kScalarNeg: return "sneg";
    case Op::kScalarBin: return "sbin";
    case Op::kLoadSection: return "load";
    case Op::kLoadShift: return "load.shift";
    case Op::kLoadRegion: return "load.region";
    case Op::kLaneDirect: return "lane.direct";
    case Op::kLaneScratch: return "lane.scratch";
    case Op::kLaneShift: return "lane.shift";
    case Op::kLaneRamp: return "lane.ramp";
    case Op::kLaneNeg: return "neg.v";
    case Op::kAddVV: return "add.vv";
    case Op::kSubVV: return "sub.vv";
    case Op::kMulVV: return "mul.vv";
    case Op::kDivVV: return "div.vv";
    case Op::kAddVS: return "add.vs";
    case Op::kSubVS: return "sub.vs";
    case Op::kMulVS: return "mul.vs";
    case Op::kDivVS: return "div.vs";
    case Op::kSubSV: return "sub.sv";
    case Op::kDivSV: return "div.sv";
    case Op::kAddDivVVS: return "adddiv.vvs";
    case Op::kStoreLanes: return "store";
    case Op::kStoreMasked: return "store.masked";
    case Op::kReduceLanes: return "reduce.lanes";
  }
  return "?";
}

namespace {

const char* reduce_name(u8 code) noexcept {
  switch (code) {
    case kRedSum: return "sum";
    case kRedMin: return "min";
    case kRedMax: return "max";
    default: return "?";
  }
}

const char* relop_name(i32 code) noexcept {
  switch (code) {
    case kLT: return "<";
    case kGT: return ">";
    case kLE: return "<=";
    case kGE: return ">=";
    case kEQ: return "==";
    case kNE: return "!=";
    default: return "?";
  }
}

void format_instr(std::ostringstream& ss, const Instr& in,
                  const std::vector<Operand>& operands) {
  const auto opnd = [&]() -> const Operand& {
    return operands[static_cast<std::size_t>(in.aux)];
  };
  ss << "    " << op_name(in.op);
  switch (in.op) {
    case Op::kScalarVar:
      ss << "      s" << +in.a << " = " << opnd().array;
      break;
    case Op::kReduceSec:
      ss << "    s" << +in.a << " = " << reduce_name(in.b) << ' ' << source_text(opnd());
      break;
    case Op::kScalarNeg:
      ss << "     s" << +in.a << " = -s" << +in.a;
      break;
    case Op::kScalarBin:
      ss << "     s" << +in.a << " = s" << +in.b << ' ' << in.x << " s" << +in.c;
      break;
    case Op::kLoadSection:
      ss << "       t" << +in.a << " = " << source_text(opnd())
         << "  [messages=" << opnd().plan->message_count()
         << ", remote=" << opnd().plan->remote_elements() << "]";
      break;
    case Op::kLoadShift:
      ss << " t" << +in.a << " = " << (opnd().circular ? "cshift(" : "eoshift(")
         << opnd().array << ", " << opnd().shift << ")";
      break;
    case Op::kLoadRegion:
      ss << " t" << +in.a << " = " << source_text(opnd())
         << "  [messages=" << opnd().region_plan->message_count()
         << ", remote=" << opnd().region_plan->remote_elements() << "]";
      break;
    case Op::kLaneDirect:
      ss << "  l" << +in.a << " = " << source_text(opnd()) << "  [no comm]";
      break;
    case Op::kLaneScratch:
      ss << " l" << +in.a << " = t" << +in.b;
      break;
    case Op::kLaneShift: {
      ss << "   l" << +in.a << " = " << source_text(opnd()) << "  [";
      if (opnd().region.size() > 1) ss << "dim=" << opnd().halo.dim << ", ";
      ss << "delta=" << opnd().shift << ", halo h" << +in.b << " per rank:";
      for (const i64 c : opnd().halo.counts) ss << ' ' << c;
      ss << ", messages=" << opnd().plan->message_count()
         << ", remote=" << opnd().plan->remote_elements() << ']';
      break;
    }
    case Op::kLaneRamp:
      ss << "    l" << +in.a << " = " << opnd().ramp_lower << " + t*"
         << opnd().ramp_stride;
      break;
    case Op::kLaneNeg:
      ss << "        l" << +in.a << " = -l" << +in.a;
      break;
    case Op::kAddVV:
    case Op::kSubVV:
    case Op::kMulVV:
    case Op::kDivVV:
      ss << "       l" << +in.a << " = l" << +in.a << ", l" << +in.b;
      break;
    case Op::kAddVS:
    case Op::kSubVS:
    case Op::kMulVS:
    case Op::kDivVS:
    case Op::kSubSV:
    case Op::kDivSV:
      ss << "       l" << +in.a << " = l" << +in.a << ", s" << +in.b;
      break;
    case Op::kAddDivVVS:
      ss << "   l" << +in.a << " = (l" << +in.a << " + l" << +in.c << ") / s" << +in.b;
      break;
    case Op::kStoreLanes:
      ss << "        dst = l" << +in.a;
      break;
    case Op::kStoreMasked:
      ss << " dst = " << ((in.flags & kMaskValScalar) ? 's' : 'l') << +in.a
         << " where " << ((in.flags & kMaskLhsScalar) ? 's' : 'l') << +in.b << ' '
         << relop_name(in.aux) << ' ' << ((in.flags & kMaskRhsScalar) ? 's' : 'l')
         << +in.c;
      break;
    case Op::kReduceLanes:
      ss << " s" << +in.a << " = " << reduce_name(in.c) << "(l" << +in.b << ")";
      break;
  }
  ss << '\n';
}

}  // namespace

std::string source_text(const Operand& o) {
  return o.array + region_text(o.region);
}

std::string CompiledProgram::shape() const { return region_text(region); }

std::string CompiledProgram::listing() const {
  std::ostringstream ss;
  ss << "bytecode program for " << (scalar_target.empty() ? target : scalar_target)
     << (scalar_target.empty() ? shape() : " (reduction over " + target + shape() + ")")
     << " on " << ranks << " ranks (" << lane_count << " lanes";
  if (store_fused) ss << ", store-fused";
  if (lanes_may_throw) ss << ", guarded";
  ss << "):\n  shares:\n";
  for (std::size_t r = 0; r < shares.size(); ++r) {
    i64 elems = 0;
    for (const Row& row : shares[r].rows) elems += row.len;
    ss << "    rank " << r << ": " << access_class_name(shares[r].kernel.cls()) << ", "
       << shares[r].rows.size() << " rows, " << elems << " lanes\n";
  }
  if (!prelude.empty()) {
    ss << "  prelude:\n";
    for (const Instr& in : prelude) format_instr(ss, in, operands);
  }
  if (!loads.empty()) {
    ss << "  loads:\n";
    for (const Instr& in : loads) format_instr(ss, in, operands);
  }
  if (!lanes.empty()) {
    ss << "  lanes:\n";
    for (const Instr& in : lanes) format_instr(ss, in, operands);
  }
  if (!notes.empty()) {
    ss << "  fusion:\n";
    for (const std::string& n : notes) ss << "    " << n << '\n';
  }
  return ss.str();
}

std::optional<std::shared_ptr<const CompiledProgram>> ProgramCache::find(
    const std::string& key) {
  auto hit = cache_.find(key);
  if (hit) {
    CYCLICK_COUNT("jitcache.hits", 0, 1);
  } else {
    CYCLICK_COUNT("jitcache.misses", 0, 1);
  }
  return hit;
}

void ProgramCache::insert(const std::string& key,
                          std::shared_ptr<const CompiledProgram> program) {
  bool evicted = false;
  cache_.insert(key, std::move(program), &evicted);
  if (evicted) CYCLICK_COUNT("jitcache.evictions", 0, 1);
}

ProgramCache& ProgramCache::global() {
  static ProgramCache cache;
  return cache;
}

}  // namespace cyclick::dsl::bc

//===- tests/TestUtil.cpp - Shared test fixtures and reference semantics --===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "alpha/AlphaEncoding.h"
#include "mips/MipsEncoding.h"
#include "sparc/SparcEncoding.h"
#include "support/Error.h"
#include "support/Rng.h"
#include <cmath>
#include <cstring>

using namespace vcode;
using namespace vcode::test;

namespace {

/// Parses VCODE_TEST_SEED once. Returns whether it is set and its value.
bool readEnvSeed(uint64_t &Out) {
  const char *Env = std::getenv("VCODE_TEST_SEED");
  if (!Env || !*Env)
    return false;
  Out = std::strtoull(Env, nullptr, 0); // accepts decimal and 0x-hex
  return true;
}

uint64_t envSeedValue() {
  static uint64_t V = [] {
    uint64_t S = 0;
    readEnvSeed(S);
    return S;
  }();
  return V;
}

} // namespace

uint64_t vcode::test::testBaseSeed() {
  return testSeedOverridden() ? envSeedValue() : 0;
}

bool vcode::test::testSeedOverridden() {
  static bool Set = [] {
    uint64_t Ignored;
    return readEnvSeed(Ignored);
  }();
  return Set;
}

uint64_t vcode::test::testSeed(uint64_t Salt) {
  // SplitMix64 finalizer over base^salt: with the default base this is a
  // stable function of the salt; any env base re-keys every case.
  uint64_t Z = (testBaseSeed() + 0x9e3779b97f4a7c15ull) ^
               (Salt * 0xbf58476d1ce4e5b9ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::string vcode::test::seedInfo(uint64_t Seed) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "rng seed 0x%016llx (base %s; rerun with VCODE_TEST_SEED=%llu "
                "to hold the corpus fixed)",
                (unsigned long long)Seed,
                testSeedOverridden() ? "from VCODE_TEST_SEED" : "default",
                (unsigned long long)testBaseSeed());
  return Buf;
}

std::vector<std::string> vcode::test::allTargetNames() {
  return {"mips", "sparc", "alpha"};
}

std::vector<std::string> vcode::test::allSubstrateNames() {
  std::vector<std::string> Names = allTargetNames();
#ifdef __x86_64__
  Names.push_back("host");
  Names.push_back("dbt");
#endif
  return Names;
}

namespace {
/// An arena that refuses every in-place growth (CodeArena::grow).
class FixedRegionMemory : public sim::Memory {
public:
  using sim::Memory::Memory;
  size_t grow(SimAddr, size_t Size, size_t) override { return Size; }
};
} // namespace

Substrate vcode::test::makeFixedRegionSubstrate(const std::string &Name) {
  if (Name == "host")
    return makeSubstrate(
        Name, std::make_unique<FixedRegionMemory>(sim::Memory::Native));
  return makeSubstrate(Name, std::make_unique<FixedRegionMemory>());
}

uint64_t vcode::test::canonicalize(Type Ty, uint64_t V, unsigned WordBytes) {
  if (isFpType(Ty))
    return Ty == Type::F ? (V & 0xffffffffu) : V;
  unsigned Bits = typeBits(Ty, WordBytes);
  if (Bits >= 64)
    return V;
  uint64_t Mask = (uint64_t(1) << Bits) - 1;
  V &= Mask;
  if (isSignedType(Ty) && (V >> (Bits - 1)))
    V |= ~Mask;
  return V;
}

namespace {

float asF(uint64_t V) {
  float F;
  uint32_t B = uint32_t(V);
  std::memcpy(&F, &B, 4);
  return F;
}
uint64_t fromF(float F) {
  uint32_t B;
  std::memcpy(&B, &F, 4);
  return B;
}
double asD(uint64_t V) {
  double D;
  std::memcpy(&D, &V, 8);
  return D;
}
uint64_t fromD(double D) {
  uint64_t B;
  std::memcpy(&B, &D, 8);
  return B;
}

} // namespace

uint64_t vcode::test::refBinop(BinOp Op, Type Ty, uint64_t A, uint64_t B,
                               unsigned WordBytes) {
  if (Ty == Type::F) {
    float X = asF(A), Y = asF(B);
    switch (Op) {
    case BinOp::Add:
      return fromF(X + Y);
    case BinOp::Sub:
      return fromF(X - Y);
    case BinOp::Mul:
      return fromF(X * Y);
    case BinOp::Div:
      return fromF(X / Y);
    default:
      unreachable("bad fp op");
    }
  }
  if (Ty == Type::D) {
    double X = asD(A), Y = asD(B);
    switch (Op) {
    case BinOp::Add:
      return fromD(X + Y);
    case BinOp::Sub:
      return fromD(X - Y);
    case BinOp::Mul:
      return fromD(X * Y);
    case BinOp::Div:
      return fromD(X / Y);
    default:
      unreachable("bad fp op");
    }
  }

  unsigned Bits = typeBits(Ty, WordBytes);
  uint64_t Mask = Bits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << Bits) - 1);
  bool Signed = isSignedType(Ty);
  uint64_t UA = A & Mask, UB = B & Mask;
  int64_t SA = Bits >= 64 ? int64_t(A)
                          : (int64_t(UA << (64 - Bits)) >> (64 - Bits));
  int64_t SB = Bits >= 64 ? int64_t(B)
                          : (int64_t(UB << (64 - Bits)) >> (64 - Bits));

  uint64_t R = 0;
  switch (Op) {
  case BinOp::Add:
    R = UA + UB;
    break;
  case BinOp::Sub:
    R = UA - UB;
    break;
  case BinOp::Mul:
    R = UA * UB;
    break;
  case BinOp::Div:
    if (Signed)
      R = uint64_t(SA / SB);
    else
      R = UA / UB;
    break;
  case BinOp::Mod:
    if (Signed)
      R = uint64_t(SA % SB);
    else
      R = UA % UB;
    break;
  case BinOp::And:
    R = UA & UB;
    break;
  case BinOp::Or:
    R = UA | UB;
    break;
  case BinOp::Xor:
    R = UA ^ UB;
    break;
  case BinOp::Lsh:
    R = UA << (UB & (Bits - 1));
    break;
  case BinOp::Rsh:
    if (Signed)
      R = uint64_t(SA >> (UB & (Bits - 1)));
    else
      R = UA >> (UB & (Bits - 1));
    break;
  }
  return canonicalize(Ty, R, WordBytes);
}

uint64_t vcode::test::refUnop(UnOp Op, Type Ty, uint64_t A,
                              unsigned WordBytes) {
  if (Ty == Type::F) {
    switch (Op) {
    case UnOp::Mov:
      return A & 0xffffffffu;
    case UnOp::Neg:
      return fromF(-asF(A));
    default:
      unreachable("bad fp unop");
    }
  }
  if (Ty == Type::D) {
    switch (Op) {
    case UnOp::Mov:
      return A;
    case UnOp::Neg:
      return fromD(-asD(A));
    default:
      unreachable("bad fp unop");
    }
  }
  switch (Op) {
  case UnOp::Com:
    return canonicalize(Ty, ~A, WordBytes);
  case UnOp::Not:
    return canonicalize(Ty, canonicalize(Ty, A, WordBytes) == 0 ? 1 : 0,
                        WordBytes);
  case UnOp::Mov:
    return canonicalize(Ty, A, WordBytes);
  case UnOp::Neg:
    return canonicalize(Ty, uint64_t(0) - A, WordBytes);
  }
  unreachable("bad UnOp");
}

bool vcode::test::refCond(Cond C, Type Ty, uint64_t A, uint64_t B,
                          unsigned WordBytes) {
  if (Ty == Type::F || Ty == Type::D) {
    double X = Ty == Type::F ? double(asF(A)) : asD(A);
    double Y = Ty == Type::F ? double(asF(B)) : asD(B);
    switch (C) {
    case Cond::Lt:
      return X < Y;
    case Cond::Le:
      return X <= Y;
    case Cond::Gt:
      return X > Y;
    case Cond::Ge:
      return X >= Y;
    case Cond::Eq:
      return X == Y;
    case Cond::Ne:
      return X != Y;
    }
  }
  unsigned Bits = typeBits(Ty, WordBytes);
  uint64_t Mask = Bits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << Bits) - 1);
  if (isSignedType(Ty)) {
    int64_t X = Bits >= 64 ? int64_t(A)
                           : (int64_t((A & Mask) << (64 - Bits)) >>
                              (64 - Bits));
    int64_t Y = Bits >= 64 ? int64_t(B)
                           : (int64_t((B & Mask) << (64 - Bits)) >>
                              (64 - Bits));
    switch (C) {
    case Cond::Lt:
      return X < Y;
    case Cond::Le:
      return X <= Y;
    case Cond::Gt:
      return X > Y;
    case Cond::Ge:
      return X >= Y;
    case Cond::Eq:
      return X == Y;
    case Cond::Ne:
      return X != Y;
    }
  }
  uint64_t X = A & Mask, Y = B & Mask;
  switch (C) {
  case Cond::Lt:
    return X < Y;
  case Cond::Le:
    return X <= Y;
  case Cond::Gt:
    return X > Y;
  case Cond::Ge:
    return X >= Y;
  case Cond::Eq:
    return X == Y;
  case Cond::Ne:
    return X != Y;
  }
  unreachable("bad Cond");
}

uint64_t vcode::test::refCvt(Type From, Type To, uint64_t A,
                             unsigned WordBytes) {
  // Source value as a double-wide intermediate.
  if (isFpType(From)) {
    double V = From == Type::F ? double(asF(A)) : asD(A);
    if (To == Type::F)
      return fromF(float(V));
    if (To == Type::D)
      return fromD(V);
    // FP -> integer truncates toward zero.
    return canonicalize(To, uint64_t(int64_t(V)), WordBytes);
  }
  uint64_t Canon = canonicalize(From, A, WordBytes);
  if (To == Type::F || To == Type::D) {
    double V;
    if (isSignedType(From))
      V = double(int64_t(Canon));
    else
      V = double(Canon);
    return To == Type::F ? fromF(float(V)) : fromD(V);
  }
  return canonicalize(To, Canon, WordBytes);
}

std::vector<uint64_t> vcode::test::operandValues(Type Ty, unsigned WordBytes,
                                                 unsigned Total,
                                                 uint64_t Seed) {
  std::vector<uint64_t> Out;
  Rng R(Seed);
  if (Ty == Type::F) {
    const float Boundary[] = {0.0f, 1.0f, -1.0f, 0.5f, -2.25f, 1e6f, -3.5e4f};
    for (float F : Boundary)
      Out.push_back(fromF(F));
    while (Out.size() < Total) {
      float F = float(int64_t(R.range(-1000000, 1000000))) / 64.0f;
      Out.push_back(fromF(F));
    }
    return Out;
  }
  if (Ty == Type::D) {
    const double Boundary[] = {0.0, 1.0, -1.0, 0.5, -2.25, 1e12, -3.5e8};
    for (double D : Boundary)
      Out.push_back(fromD(D));
    while (Out.size() < Total) {
      double D = double(int64_t(R.next() % (1ull << 40))) / 128.0 - 1e9;
      Out.push_back(fromD(D));
    }
    return Out;
  }
  unsigned Bits = typeBits(Ty, WordBytes);
  uint64_t Mask = Bits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << Bits) - 1);
  const uint64_t Boundary[] = {0,
                               1,
                               2,
                               Mask,            // all ones / -1
                               Mask >> 1,       // max signed
                               (Mask >> 1) + 1, // min signed
                               0x7f,
                               0x80,
                               0xff,
                               0x8000,
                               0x12345678 & Mask};
  for (uint64_t V : Boundary)
    Out.push_back(canonicalize(Ty, V, WordBytes));
  while (Out.size() < Total)
    Out.push_back(canonicalize(Ty, R.next(), WordBytes));
  return Out;
}

uint32_t vcode::test::mipsRepresentativeWord(mips::Opc Op) {
  using namespace mips;
  const uint32_t W = fixedBits(Op);
  const unsigned Rs = A0, Rt = V0, Rd = A1, Sa = 3, Imm = 8;
  const unsigned Fmt = Op == Opc::CvtS ? FMT_D : FMT_S;
  switch (info(Op).Operands) {
  case Form::None:
    return 0x3fu << 26;
  case Form::RdRsRt:
    return encodeAs<Form::RdRsRt>(W, Rd, Rs, Rt);
  case Form::RdRtSa:
    return encodeAs<Form::RdRtSa>(W, Rd, Rt, Sa);
  case Form::RdRtRs:
    return encodeAs<Form::RdRtRs>(W, Rd, Rt, Rs);
  case Form::Rs:
    return encodeAs<Form::Rs>(W, Rs);
  case Form::RdRs:
    return encodeAs<Form::RdRs>(W, Rd, Rs);
  case Form::Rd:
    return encodeAs<Form::Rd>(W, Rd);
  case Form::RsRt:
    return encodeAs<Form::RsRt>(W, Rs, Rt);
  case Form::RsOff:
    return encodeAs<Form::RsOff>(W, Rs, Imm);
  case Form::RsRtOff:
    return encodeAs<Form::RsRtOff>(W, Rs, Rt, Imm);
  case Form::Off:
    return encodeAs<Form::Off>(W, Imm);
  case Form::Target: // the index holds rs, rt and the immediate
    return encodeAs<Form::Target>(W, uint64_t(iType(Rs, Rt, Imm)) << 2);
  case Form::RtRsImm:
    return encodeAs<Form::RtRsImm>(W, Rt, Rs, Imm);
  case Form::RtRsUImm:
    return encodeAs<Form::RtRsUImm>(W, Rt, Rs, Imm);
  case Form::RtUImm:
    return encodeAs<Form::RtUImm>(W, Rt, Imm);
  case Form::RtFs:
    return encodeAs<Form::RtFs>(W, Rt, 4);
  case Form::FdFsFt:
    return encodeAs<Form::FdFsFt>(W, Fmt, 0, 2, 4);
  case Form::FdFs:
    return encodeAs<Form::FdFs>(W, Fmt, 0, 2);
  case Form::FsFt:
    return encodeAs<Form::FsFt>(W, Fmt, 2, 4);
  case Form::RtMem:
    return encodeAs<Form::RtMem>(W, Rt, Rs, Imm);
  case Form::FtMem:
    return encodeAs<Form::FtMem>(W, Rt, Rs, Imm);
  }
  return 0;
}

uint32_t vcode::test::sparcRepresentativeWord(sparc::Opc Op) {
  using namespace sparc;
  const uint32_t W = fixedBits(Op);
  const unsigned Rd = O2, Rs1 = O0, Rs2 = O4;
  switch (info(Op).Operands) {
  case Form::None:
    return encode<Opc::Bicc>(CondNE, 2) | (1u << 29); // annulled
  case Form::Call:
    return encode<Opc::Call>(2);
  case Form::Sethi:
    return encode<Opc::Sethi>(Rd, 0x1234);
  case Form::Bicc:
  case Form::FBfcc:
    return encodeAs<Form::Bicc>(W, 9, 2);
  case Form::RdY:
    return encodeAs<Form::RdY>(W, Rd);
  case Form::WrY:
    return encodeAs<Form::WrY>(W, Rs1, Rs2);
  case Form::Jmpl:
    return encode<Opc::Jmpl>(Rd, O7, Simm13{8});
  case Form::Fp2:
    return encodeAs<Form::Fp2>(W, 10, 12);
  case Form::FCmp:
    return encodeAs<Form::FCmp>(W, 8, 12);
  case Form::Alu:
  case Form::Fp3:
  case Form::Load:
  case Form::Store:
  case Form::LoadF:
  case Form::StoreF:
    return encodeAs<Form::Alu>(W, Rd, Rs1, Rs2);
  }
  return 0;
}

uint32_t vcode::test::alphaRepresentativeWord(alpha::Opc Op) {
  using namespace alpha;
  const uint32_t W = fixedBits(Op);
  const unsigned Ra = A0, Rb = A1, Rc = A2;
  switch (info(Op).Operands) {
  case Form::None:
    return 0x01u << 26;
  case Form::MemI:
  case Form::MemF:
    return encodeAs<Form::MemI>(W, Ra, Rb, 8);
  case Form::Br:
  case Form::FBr:
    return encodeAs<Form::Br>(W, Ra, 1);
  case Form::Jump:
    return encodeAs<Form::Jump>(W, Ra, RA);
  case Form::Operate:
    return encodeAs<Form::Operate>(W, Rc, Ra, Rb);
  case Form::Fp2:
    return encodeAs<Form::Fp2>(W, Rc, Rb);
  case Form::Fp3:
    return encodeAs<Form::Fp3>(W, Rc, Ra, Rb);
  }
  return 0;
}

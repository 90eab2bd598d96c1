//===- perfbench/bench/Oracle.cpp - Seeded inputs and host oracles --------===//

#include "Oracle.h"
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

using namespace vcode;

namespace perfbench {

uint64_t subSeed(uint64_t Seed, uint64_t Salt) {
  Rng R(Seed ^ (Salt * 0xd1342543de82ef95ull));
  return R.next();
}

// --- Reference semantics -----------------------------------------------------

static unsigned bitsOf(Type Ty, unsigned WordBytes) {
  return typeSize(Ty, WordBytes) * 8;
}

static uint64_t maskOf(unsigned Bits) {
  return Bits >= 64 ? ~uint64_t(0) : (uint64_t(1) << Bits) - 1;
}

static int64_t signExtend(uint64_t V, unsigned Bits) {
  if (Bits >= 64)
    return int64_t(V);
  return int64_t(V << (64 - Bits)) >> (64 - Bits);
}

uint64_t canonical(Type Ty, uint64_t V, unsigned WordBytes) {
  unsigned Bits = bitsOf(Ty, WordBytes);
  V &= maskOf(Bits);
  return isSignedType(Ty) ? uint64_t(signExtend(V, Bits)) : V;
}

uint64_t evalBinop(BinOp Op, Type Ty, uint64_t A, uint64_t B,
                   unsigned WordBytes) {
  unsigned Bits = bitsOf(Ty, WordBytes);
  uint64_t M = maskOf(Bits), UA = A & M, UB = B & M;
  int64_t SA = signExtend(UA, Bits), SB = signExtend(UB, Bits);
  bool Signed = isSignedType(Ty);
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
    R = Signed ? uint64_t(SA / SB) : UA / UB;
    break;
  case BinOp::Mod:
    R = Signed ? uint64_t(SA % SB) : UA % UB;
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
    R = Signed ? uint64_t(SA >> (UB & (Bits - 1))) : UA >> (UB & (Bits - 1));
    break;
  }
  return canonical(Ty, R, WordBytes);
}

uint64_t evalUnop(UnOp Op, Type Ty, uint64_t A, unsigned WordBytes) {
  switch (Op) {
  case UnOp::Com:
    return canonical(Ty, ~A, WordBytes);
  case UnOp::Not:
    return canonical(Ty, A, WordBytes) == 0 ? 1 : 0;
  case UnOp::Mov:
    return canonical(Ty, A, WordBytes);
  case UnOp::Neg:
    return canonical(Ty, uint64_t(0) - A, WordBytes);
  }
  std::abort();
}

bool evalCond(Cond C, Type Ty, uint64_t A, uint64_t B, unsigned WordBytes) {
  unsigned Bits = bitsOf(Ty, WordBytes);
  uint64_t M = maskOf(Bits);
  auto Cmp = [C](auto X, auto Y) {
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
    return false;
  };
  if (isSignedType(Ty))
    return Cmp(signExtend(A & M, Bits), signExtend(B & M, Bits));
  return Cmp(A & M, B & M);
}

uint64_t evalCvt(Type From, Type To, uint64_t A, unsigned WordBytes) {
  return canonical(To, canonical(From, A, WordBytes), WordBytes);
}

// --- Streams -----------------------------------------------------------------

static std::vector<Type> cvtPartners(Type Ty) {
  switch (Ty) {
  case Type::I:
    return {Type::U, Type::L, Type::UL};
  case Type::U:
    return {Type::I, Type::UL};
  case Type::L:
    return {Type::I, Type::UL};
  default:
    return {Type::I, Type::U, Type::L};
  }
}

Stream makeStream(Rng &R, Type Ty, unsigned Len, unsigned WordBytes,
                  bool AllowCvt) {
  Stream S;
  S.Ty = Ty;
  for (uint64_t &V : S.Init)
    V = canonical(Type::UL, R.next(), WordBytes);
  const unsigned Bits = bitsOf(Ty, WordBytes);
  unsigned NoGuardUntil = 0;
  S.Insns.reserve(Len);
  for (unsigned I = 0; I < Len; ++I) {
    StreamInsn N;
    N.D = uint8_t(R.below(StreamSlots));
    N.A = uint8_t(R.below(StreamSlots));
    N.B = uint8_t(R.below(StreamSlots));
    unsigned Pick = unsigned(R.below(9));
    if (Pick == 7 && !AllowCvt)
      Pick = unsigned(R.below(7));
    if (Pick == 8 && (I < NoGuardUntil || I + 1 >= Len))
      Pick = unsigned(R.below(7));
    switch (Pick) {
    case 0: {
      static const BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul,
                                  BinOp::And, BinOp::Or,  BinOp::Xor};
      N.Kind = StreamInsn::Bin;
      N.Bop = Ops[R.below(6)];
      break;
    }
    case 1: {
      static const BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul,
                                  BinOp::And, BinOp::Or,  BinOp::Xor,
                                  BinOp::Lsh, BinOp::Rsh};
      N.Kind = StreamInsn::BinImm;
      N.Bop = Ops[R.below(8)];
      N.Imm = (N.Bop == BinOp::Lsh || N.Bop == BinOp::Rsh)
                  ? int64_t(R.below(Bits))
                  : int64_t(int32_t(uint32_t(R.next())));
      break;
    }
    case 2: {
      static const UnOp Ops[] = {UnOp::Com, UnOp::Not, UnOp::Mov};
      N.Kind = StreamInsn::Un;
      N.Uop = Ops[R.below(3)];
      break;
    }
    case 3:
      N.Kind = StreamInsn::Set;
      N.Imm = int64_t(R.next());
      break;
    case 4: {
      static const Cond Cs[] = {Cond::Lt, Cond::Le, Cond::Gt,
                                Cond::Ge, Cond::Eq, Cond::Ne};
      N.Kind = StreamInsn::CmpSet;
      N.C = Cs[R.below(6)];
      break;
    }
    case 5:
      N.Kind = StreamInsn::Load;
      N.Cell = uint8_t(R.below(ScratchCells));
      break;
    case 6:
      N.Kind = StreamInsn::Store;
      N.Cell = uint8_t(R.below(ScratchCells));
      break;
    case 7: {
      std::vector<Type> P = cvtPartners(Ty);
      N.Kind = StreamInsn::Cvt;
      N.Ty2 = P[R.below(P.size())];
      break;
    }
    default: {
      static const Cond Cs[] = {Cond::Lt, Cond::Ge, Cond::Eq, Cond::Ne};
      N.Kind = StreamInsn::Guard;
      N.C = Cs[R.below(4)];
      unsigned MaxSkip = std::min(3u, Len - I - 1);
      N.Skip = uint8_t(1 + R.below(MaxSkip));
      NoGuardUntil = I + 1 + N.Skip;
      break;
    }
    }
    S.Insns.push_back(N);
  }
  return S;
}

StreamResult evalStream(const Stream &S, unsigned WB) {
  StreamResult Out;
  const Type Ty = S.Ty;
  for (unsigned I = 0; I < StreamSlots; ++I)
    Out.Slot[I] = canonical(Ty, S.Init[I], WB);
  auto &Slot = Out.Slot;
  auto &Mem = Out.Scratch;
  size_t I = 0;
  while (I < S.Insns.size()) {
    const StreamInsn &N = S.Insns[I];
    switch (N.Kind) {
    case StreamInsn::Bin:
      Slot[N.D] = evalBinop(N.Bop, Ty, Slot[N.A], Slot[N.B], WB);
      break;
    case StreamInsn::BinImm:
      Slot[N.D] = evalBinop(N.Bop, Ty, Slot[N.A],
                            canonical(Ty, uint64_t(N.Imm), WB), WB);
      break;
    case StreamInsn::Un:
      Slot[N.D] = evalUnop(N.Uop, Ty, Slot[N.A], WB);
      break;
    case StreamInsn::Set:
      Slot[N.D] = canonical(Ty, uint64_t(N.Imm), WB);
      break;
    case StreamInsn::CmpSet:
      Slot[N.D] = evalCond(N.C, Ty, Slot[N.A], Slot[N.B], WB) ? 1 : 0;
      break;
    case StreamInsn::Load:
      Slot[N.D] = Mem[N.Cell];
      break;
    case StreamInsn::Store:
      Mem[N.Cell] = Slot[N.A];
      break;
    case StreamInsn::Cvt:
      Slot[N.D] = evalCvt(N.Ty2, Ty, evalCvt(Ty, N.Ty2, Slot[N.A], WB), WB);
      break;
    case StreamInsn::Guard:
      if (evalCond(N.C, Ty, Slot[N.A], Slot[N.B], WB)) {
        I += 1 + N.Skip;
        continue;
      }
      break;
    }
    ++I;
  }
  return Out;
}

unsigned streamVcodeInsns(const Stream &S, bool Tier1) {
  // Regular emitter: 4 entry conversions + pointer set; exit pointer set +
  // 4 x (conversion + store) + return. Vreg layer: pointer set; exit
  // pointer set + 4 stores + return.
  unsigned N = Tier1 ? 1 + 6 : 5 + 10;
  for (const StreamInsn &I : S.Insns) {
    switch (I.Kind) {
    case StreamInsn::CmpSet:
      N += 4; // branch, set, jump, set
      break;
    case StreamInsn::Cvt:
      N += 2;
      break;
    default:
      N += 1;
      break;
    }
  }
  return N;
}

// --- tcc-lite programs -------------------------------------------------------

namespace {

struct Expr {
  enum KindType { Num, Var, Bin, Neg, Not } Kind = Num;
  std::string Op;
  int32_t Value = 0;
  std::string Name;
  std::unique_ptr<Expr> L, R;
};

struct Stmt {
  enum KindType { Assign, If, Loop } Kind = Assign;
  std::string Var;     ///< assignment target / loop counter
  std::unique_ptr<Expr> E; ///< value or condition
  int32_t Trips = 0;   ///< loop bound
  std::vector<std::unique_ptr<Stmt>> Then, Else;
};

using Env = std::map<std::string, int32_t>;

int32_t wrap(int64_t V) { return int32_t(uint32_t(uint64_t(V))); }

int32_t eval(const Expr &E, const Env &V) {
  switch (E.Kind) {
  case Expr::Num:
    return E.Value;
  case Expr::Var:
    return V.at(E.Name);
  case Expr::Neg:
    return wrap(-int64_t(eval(*E.L, V)));
  case Expr::Not:
    return eval(*E.L, V) == 0;
  case Expr::Bin:
    break;
  }
  int32_t A = eval(*E.L, V), B = eval(*E.R, V);
  const std::string &O = E.Op;
  if (O == "+")
    return wrap(int64_t(A) + B);
  if (O == "-")
    return wrap(int64_t(A) - B);
  if (O == "*")
    return int32_t(uint32_t(A) * uint32_t(B)); // unsigned: wraps, no UB
  if (O == "/")
    return A / B; // B is a positive constant
  if (O == "%")
    return A % B;
  if (O == "==")
    return A == B;
  if (O == "!=")
    return A != B;
  if (O == "<")
    return A < B;
  if (O == "<=")
    return A <= B;
  if (O == ">")
    return A > B;
  if (O == ">=")
    return A >= B;
  if (O == "&&")
    return A != 0 && B != 0;
  return A != 0 || B != 0; // "||"
}

void exec(const std::vector<std::unique_ptr<Stmt>> &Body, Env &V) {
  for (const auto &S : Body) {
    switch (S->Kind) {
    case Stmt::Assign:
      V[S->Var] = eval(*S->E, V);
      break;
    case Stmt::If:
      exec(eval(*S->E, V) ? S->Then : S->Else, V);
      break;
    case Stmt::Loop:
      for (V[S->Var] = 0; V[S->Var] < S->Trips; V[S->Var] = V[S->Var] + 1)
        exec(S->Then, V);
      break;
    }
  }
}

std::string render(const Expr &E) {
  switch (E.Kind) {
  case Expr::Num:
    return std::to_string(E.Value);
  case Expr::Var:
    return E.Name;
  case Expr::Neg:
    return "(-" + render(*E.L) + ")";
  case Expr::Not:
    return "(!" + render(*E.L) + ")";
  case Expr::Bin:
    break;
  }
  return "(" + render(*E.L) + " " + E.Op + " " + render(*E.R) + ")";
}

void render(const std::vector<std::unique_ptr<Stmt>> &Body, std::string &Out) {
  for (const auto &S : Body) {
    switch (S->Kind) {
    case Stmt::Assign:
      Out += S->Var + " = " + render(*S->E) + "; ";
      break;
    case Stmt::If:
      Out += "if (" + render(*S->E) + ") { ";
      render(S->Then, Out);
      Out += "} else { ";
      render(S->Else, Out);
      Out += "} ";
      break;
    case Stmt::Loop:
      Out += S->Var + " = 0; while (" + S->Var + " < " +
             std::to_string(S->Trips) + ") { ";
      render(S->Then, Out);
      Out += S->Var + " = " + S->Var + " + 1; } ";
      break;
    }
  }
}

class ProgramGen {
public:
  explicit ProgramGen(Rng &R) : R(R) {}

  std::unique_ptr<Expr> expr(unsigned Depth) {
    auto E = std::make_unique<Expr>();
    if (Depth == 0 || R.below(3) == 0) {
      if (R.below(3) == 0) {
        E->Kind = Expr::Num;
        E->Value = int32_t(R.below(1000));
      } else {
        E->Kind = Expr::Var;
        E->Name = Readable[R.below(Readable.size())];
      }
      return E;
    }
    unsigned Pick = unsigned(R.below(16));
    if (Pick < 2) {
      E->Kind = Pick == 0 ? Expr::Neg : Expr::Not;
      E->L = expr(Depth - 1);
      return E;
    }
    static const char *Ops[] = {"+",  "-", "*",  "/",  "%",  "==", "!=",
                                "<",  "<=", ">", ">=", "&&", "||", "+"};
    E->Kind = Expr::Bin;
    E->Op = Ops[Pick - 2];
    E->L = expr(Depth - 1);
    if (E->Op == "/" || E->Op == "%") {
      // Constant positive divisors: no trap, no INT_MIN / -1.
      E->R = std::make_unique<Expr>();
      E->R->Value = int32_t(1 + R.below(97));
    } else {
      E->R = expr(Depth - 1);
    }
    return E;
  }

  std::vector<std::unique_ptr<Stmt>> block(unsigned &Budget, unsigned Nest) {
    std::vector<std::unique_ptr<Stmt>> Body;
    unsigned N = 1 + unsigned(R.below(4));
    for (unsigned I = 0; I < N && Budget > 0; ++I) {
      --Budget;
      auto S = std::make_unique<Stmt>();
      unsigned Pick = unsigned(R.below(6));
      if (Pick == 0 && Nest < 2) {
        S->Kind = Stmt::If;
        S->E = expr(2);
        S->Then = block(Budget, Nest + 1);
        S->Else = block(Budget, Nest + 1);
      } else if (Pick == 1 && Nest < 2) {
        S->Kind = Stmt::Loop;
        S->Var = "i" + std::to_string(Nest);
        S->Trips = int32_t(1 + R.below(5));
        S->Then = block(Budget, Nest + 1);
      } else {
        S->Kind = Stmt::Assign;
        S->Var = Writable[R.below(Writable.size())];
        S->E = expr(3);
      }
      Body.push_back(std::move(S));
    }
    return Body;
  }

  Rng &R;
  std::vector<std::string> Readable, Writable;
};

} // namespace

TccProgram makeTccProgram(Rng &R, unsigned Stmts) {
  ProgramGen G(R);
  const unsigned Locals = 2 + unsigned(R.below(3));
  G.Writable = {"a", "b", "c"};
  for (unsigned I = 0; I < Locals; ++I)
    G.Writable.push_back("x" + std::to_string(I));
  G.Readable = G.Writable;
  G.Readable.push_back("i0");
  G.Readable.push_back("i1");

  Env V;
  TccProgram P;
  for (unsigned I = 0; I < 3; ++I) {
    P.Args[I] = int32_t(R.below(2001)) - 1000;
    V[G.Writable[I]] = P.Args[I];
  }
  std::string Src = "f(a, b, c) { ";
  for (unsigned I = 0; I < Locals; ++I) {
    int32_t Init = int32_t(R.below(100));
    Src += "var x" + std::to_string(I) + " = " + std::to_string(Init) + "; ";
    V["x" + std::to_string(I)] = Init;
  }
  Src += "var i0 = 0; var i1 = 0; ";
  V["i0"] = V["i1"] = 0;

  unsigned Budget = Stmts;
  std::vector<std::unique_ptr<Stmt>> Body;
  while (Budget > 0) {
    auto More = G.block(Budget, 0);
    for (auto &S : More)
      Body.push_back(std::move(S));
  }
  auto Ret = G.expr(3);
  render(Body, Src);
  Src += "return " + render(*Ret) + "; }";

  exec(Body, V);
  P.Expected = eval(*Ret, V);
  P.Source = std::move(Src);
  return P;
}

} // namespace perfbench

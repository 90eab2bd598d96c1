//===- tcc/Tcc.cpp - tcc-lite: a compiler targeting VCODE -------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "tcc/Tcc.h"
#include "core/Generate.h"
#include "core/Peephole.h"
#include "support/Error.h"
#include <cctype>
#include <memory>
#include <vector>

using namespace vcode;
using namespace vcode::tcc;

namespace {

// --- Lexer -------------------------------------------------------------------

struct Token {
  enum KindType { Ident, Number, Punct, End } Kind = End;
  std::string Text;
  int64_t Value = 0;
  unsigned Line = 1;
};

class Lexer {
public:
  explicit Lexer(const std::string &Source) : Src(&Source) { advance(); }

  const Token &cur() const { return Cur; }

  void advance() {
    skipSpace();
    Cur.Line = Line;
    if (Pos >= Src->size()) {
      Cur.Kind = Token::End;
      Cur.Text.clear();
      return;
    }
    char C = (*Src)[Pos];
    if (std::isalpha(uint8_t(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Src->size() &&
             (std::isalnum(uint8_t((*Src)[Pos])) || (*Src)[Pos] == '_'))
        ++Pos;
      Cur.Kind = Token::Ident;
      Cur.Text = Src->substr(Start, Pos - Start);
      return;
    }
    if (std::isdigit(uint8_t(C))) {
      size_t Start = Pos;
      int Base = 10;
      if (C == '0' && Pos + 1 < Src->size() &&
          ((*Src)[Pos + 1] == 'x' || (*Src)[Pos + 1] == 'X')) {
        Base = 16;
        Pos += 2;
        Start = Pos;
      }
      while (Pos < Src->size() && std::isalnum(uint8_t((*Src)[Pos])))
        ++Pos;
      Cur.Kind = Token::Number;
      Cur.Text = Src->substr(Start, Pos - Start);
      Cur.Value = std::strtoll(Cur.Text.c_str(), nullptr, Base);
      return;
    }
    // Multi-character punctuation first.
    static const char *Multi[] = {"==", "!=", "<=", ">=", "&&", "||"};
    for (const char *M : Multi) {
      if (Src->compare(Pos, 2, M) == 0) {
        Cur.Kind = Token::Punct;
        Cur.Text = M;
        Pos += 2;
        return;
      }
    }
    Cur.Kind = Token::Punct;
    Cur.Text = std::string(1, C);
    ++Pos;
  }

private:
  void skipSpace() {
    for (;;) {
      while (Pos < Src->size() && std::isspace(uint8_t((*Src)[Pos]))) {
        if ((*Src)[Pos] == '\n')
          ++Line;
        ++Pos;
      }
      // '//' comments
      if (Pos + 1 < Src->size() && (*Src)[Pos] == '/' &&
          (*Src)[Pos + 1] == '/') {
        while (Pos < Src->size() && (*Src)[Pos] != '\n')
          ++Pos;
        continue;
      }
      return;
    }
  }

  const std::string *Src;
  size_t Pos = 0;
  unsigned Line = 1;
  Token Cur;
};

// --- AST ---------------------------------------------------------------------

enum class EOp {
  Add, Sub, Mul, Div, Mod,
  Eq, Ne, Lt, Le, Gt, Ge,
  LogAnd, LogOr, LogNot, Neg,
};

struct Expr {
  enum KindType { Num, Var, Op, Call } Kind = Num;
  int64_t Value = 0;
  std::string Name;
  EOp Operation = EOp::Add;
  std::vector<std::unique_ptr<Expr>> Kids;
  unsigned Line = 0;
};

struct Stmt {
  enum KindType { Block, VarDecl, Assign, If, While, Return, ExprStmt } Kind =
      Block;
  std::string Name;
  std::unique_ptr<Expr> E;
  std::vector<std::unique_ptr<Stmt>> Kids; // Block: all; If: then[, else];
                                           // While: body
  unsigned Line = 0;
};

struct FunctionAst {
  std::string Name;
  std::vector<std::string> Params;
  std::unique_ptr<Stmt> Body;
  bool HasCalls = false;
};

// --- Parser ------------------------------------------------------------------

class Parser {
public:
  explicit Parser(const std::string &Src) : Lex(Src) {}

  FunctionAst parseFunction() {
    FunctionAst F;
    F.Name = expectIdent("function name");
    expectPunct("(");
    if (!isPunct(")")) {
      for (;;) {
        F.Params.push_back(expectIdent("parameter name"));
        if (!isPunct(","))
          break;
        Lex.advance();
      }
    }
    expectPunct(")");
    F.Body = parseBlock();
    if (Lex.cur().Kind != Token::End)
      err("trailing tokens after function body");
    F.HasCalls = HasCalls;
    return F;
  }

private:
  [[noreturn]] void err(const char *Msg) {
    fatal("tcc: line %u: %s (near '%s')", Lex.cur().Line, Msg,
          Lex.cur().Text.c_str());
  }

  bool isPunct(const char *P) {
    return Lex.cur().Kind == Token::Punct && Lex.cur().Text == P;
  }
  bool isIdent(const char *K) {
    return Lex.cur().Kind == Token::Ident && Lex.cur().Text == K;
  }
  void expectPunct(const char *P) {
    if (!isPunct(P))
      err(P[0] == ';' ? "expected ';'" : "unexpected token");
    Lex.advance();
  }
  std::string expectIdent(const char *What) {
    if (Lex.cur().Kind != Token::Ident)
      err(What);
    std::string S = Lex.cur().Text;
    Lex.advance();
    return S;
  }

  std::unique_ptr<Stmt> parseBlock() {
    expectPunct("{");
    auto B = std::make_unique<Stmt>();
    B->Kind = Stmt::Block;
    B->Line = Lex.cur().Line;
    while (!isPunct("}"))
      B->Kids.push_back(parseStmt());
    Lex.advance();
    return B;
  }

  std::unique_ptr<Stmt> parseStmt() {
    unsigned Line = Lex.cur().Line;
    if (isPunct("{"))
      return parseBlock();
    auto S = std::make_unique<Stmt>();
    S->Line = Line;
    if (isIdent("var")) {
      Lex.advance();
      S->Kind = Stmt::VarDecl;
      S->Name = expectIdent("variable name");
      if (isPunct("=")) {
        Lex.advance();
        S->E = parseExpr();
      }
      expectPunct(";");
      return S;
    }
    if (isIdent("if")) {
      Lex.advance();
      S->Kind = Stmt::If;
      expectPunct("(");
      S->E = parseExpr();
      expectPunct(")");
      S->Kids.push_back(parseStmt());
      if (isIdent("else")) {
        Lex.advance();
        S->Kids.push_back(parseStmt());
      }
      return S;
    }
    if (isIdent("while")) {
      Lex.advance();
      S->Kind = Stmt::While;
      expectPunct("(");
      S->E = parseExpr();
      expectPunct(")");
      S->Kids.push_back(parseStmt());
      return S;
    }
    if (isIdent("return")) {
      Lex.advance();
      S->Kind = Stmt::Return;
      if (!isPunct(";"))
        S->E = parseExpr();
      expectPunct(";");
      return S;
    }
    // assignment or expression statement
    if (Lex.cur().Kind == Token::Ident) {
      // Look ahead: ident '=' (but not '==') means assignment.
      std::string Name = Lex.cur().Text;
      Lexer Save = Lex; // cheap copy: lexer state is small
      Lex.advance();
      if (isPunct("=")) {
        Lex.advance();
        S->Kind = Stmt::Assign;
        S->Name = Name;
        S->E = parseExpr();
        expectPunct(";");
        return S;
      }
      Lex = Save;
    }
    S->Kind = Stmt::ExprStmt;
    S->E = parseExpr();
    expectPunct(";");
    return S;
  }

  std::unique_ptr<Expr> parseExpr() { return parseBinary(0); }

  struct OpInfo {
    const char *Text;
    EOp Operation;
    int Prec;
  };

  const OpInfo *matchBinary() {
    static const OpInfo Ops[] = {
        {"||", EOp::LogOr, 1},  {"&&", EOp::LogAnd, 2},
        {"==", EOp::Eq, 3},     {"!=", EOp::Ne, 3},
        {"<", EOp::Lt, 4},      {"<=", EOp::Le, 4},
        {">", EOp::Gt, 4},      {">=", EOp::Ge, 4},
        {"+", EOp::Add, 5},     {"-", EOp::Sub, 5},
        {"*", EOp::Mul, 6},     {"/", EOp::Div, 6},
        {"%", EOp::Mod, 6},
    };
    if (Lex.cur().Kind != Token::Punct)
      return nullptr;
    for (const OpInfo &O : Ops)
      if (Lex.cur().Text == O.Text)
        return &O;
    return nullptr;
  }

  std::unique_ptr<Expr> parseBinary(int MinPrec) {
    auto L = parseUnary();
    for (;;) {
      const OpInfo *O = matchBinary();
      if (!O || O->Prec < MinPrec)
        return L;
      Lex.advance();
      auto R = parseBinary(O->Prec + 1);
      auto N = std::make_unique<Expr>();
      N->Kind = Expr::Op;
      N->Operation = O->Operation;
      N->Kids.push_back(std::move(L));
      N->Kids.push_back(std::move(R));
      L = std::move(N);
    }
  }

  std::unique_ptr<Expr> parseUnary() {
    if (isPunct("-") || isPunct("!")) {
      bool Not = Lex.cur().Text == "!";
      Lex.advance();
      auto N = std::make_unique<Expr>();
      N->Kind = Expr::Op;
      N->Operation = Not ? EOp::LogNot : EOp::Neg;
      N->Kids.push_back(parseUnary());
      return N;
    }
    return parsePrimary();
  }

  std::unique_ptr<Expr> parsePrimary() {
    auto N = std::make_unique<Expr>();
    N->Line = Lex.cur().Line;
    if (Lex.cur().Kind == Token::Number) {
      N->Kind = Expr::Num;
      N->Value = Lex.cur().Value;
      Lex.advance();
      return N;
    }
    if (isPunct("(")) {
      Lex.advance();
      auto E = parseExpr();
      expectPunct(")");
      return E;
    }
    if (Lex.cur().Kind == Token::Ident) {
      std::string Name = Lex.cur().Text;
      Lex.advance();
      if (isPunct("(")) {
        Lex.advance();
        N->Kind = Expr::Call;
        N->Name = Name;
        HasCalls = true;
        if (!isPunct(")")) {
          for (;;) {
            N->Kids.push_back(parseExpr());
            if (!isPunct(","))
              break;
            Lex.advance();
          }
        }
        expectPunct(")");
        return N;
      }
      N->Kind = Expr::Var;
      N->Name = Name;
      return N;
    }
    err("expected expression");
  }

  Lexer Lex;
  bool HasCalls = false;
};

// --- Code generation -----------------------------------------------------------

class CodeGen {
public:
  /// Tier-1 runs the peephole layer; Tier-0 emits tcc's naive code.
  CodeGen(Target &Tgt, sim::Memory &Mem, Tier T,
          std::function<SimAddr(const std::string &)> Resolve)
      : V(Tgt), PH(V, T == Tier::Tier1), Mem(Mem),
        Resolve(std::move(Resolve)) {}

  VCode &vcode() { return V; }

  /// One emission attempt into \p CM. Re-runnable: per-attempt state (the
  /// symbol table and the peephole window) is reset up front, so compile()
  /// can call it again with a larger region after an overflow.
  CodePtr generateInto(const FunctionAst &F, CodeMem CM) {
    Vars.clear();
    PH.discard();
    std::string Sig;
    for (size_t I = 0; I < F.Params.size(); ++I)
      Sig += "%i";
    if (F.Params.empty())
      Sig = "%v";
    NonLeaf = F.HasCalls;
    std::vector<Reg> ArgRegs(F.Params.size() + 1);
    V.lambda(Sig.c_str(), ArgRegs.data(), !F.HasCalls, CM);

    // Parameters become locals: simple and safe for a front-end this
    // small — VCODE's low-level interface would let a smarter compiler
    // keep them in registers (paper §3.1).
    for (size_t I = 0; I < F.Params.size(); ++I) {
      Local L = V.localVar(Type::I);
      if (!Vars.emplace(F.Params[I], L).second)
        fatal("tcc: duplicate parameter '%s'", F.Params[I].c_str());
      PH.storeImm(Type::I, ArgRegs[I], V.spReg(), L.Off);
    }

    genStmt(*F.Body);
    // Implicit `return 0` at the end.
    Reg R = get();
    PH.setInt(Type::I, R, 0);
    PH.ret(Type::I, R);
    V.putreg(R);
    PH.flush();
    return V.end();
  }

private:
  Reg get() {
    // In a non-leaf function every expression temporary may have to live
    // across a call, so allocate from the persistent class (paper §3.2's
    // Var registers); VCODE saves exactly the ones used.
    Reg R = V.getreg(Type::I, NonLeaf ? RegClass::Var : RegClass::Temp);
    if (!R.isValid())
      fatalKind(CgErrKind::RegisterPressure,
                "tcc: expression too complex (out of registers)");
    return R;
  }

  Local lookupVar(const std::string &Name, unsigned Line) {
    auto It = Vars.find(Name);
    if (It == Vars.end())
      fatal("tcc: line %u: undefined variable '%s'", Line, Name.c_str());
    return It->second;
  }

  void genStmt(const Stmt &S) {
    switch (S.Kind) {
    case Stmt::Block:
      for (const auto &K : S.Kids)
        genStmt(*K);
      return;
    case Stmt::VarDecl: {
      if (Vars.count(S.Name))
        fatal("tcc: line %u: duplicate variable '%s'", S.Line,
              S.Name.c_str());
      Local L = V.localVar(Type::I);
      Vars.emplace(S.Name, L);
      if (S.E) {
        Reg R = genExpr(*S.E);
        PH.storeImm(Type::I, R, V.spReg(), L.Off);
        V.putreg(R);
      }
      return;
    }
    case Stmt::Assign: {
      Local L = lookupVar(S.Name, S.Line);
      Reg R = genExpr(*S.E);
      PH.storeImm(Type::I, R, V.spReg(), L.Off);
      V.putreg(R);
      return;
    }
    case Stmt::If: {
      Label LElse = V.genLabel(), LEnd = V.genLabel();
      Reg C = genExpr(*S.E);
      PH.branchImm(Cond::Eq, Type::I, C, 0, LElse);
      V.putreg(C);
      genStmt(*S.Kids[0]);
      PH.jmp(LEnd);
      PH.label(LElse);
      if (S.Kids.size() > 1)
        genStmt(*S.Kids[1]);
      PH.label(LEnd);
      return;
    }
    case Stmt::While: {
      Label LTop = V.genLabel(), LEnd = V.genLabel();
      PH.label(LTop);
      Reg C = genExpr(*S.E);
      PH.branchImm(Cond::Eq, Type::I, C, 0, LEnd);
      V.putreg(C);
      genStmt(*S.Kids[0]);
      PH.jmp(LTop);
      PH.label(LEnd);
      return;
    }
    case Stmt::Return: {
      if (S.E) {
        Reg R = genExpr(*S.E);
        PH.ret(Type::I, R);
        V.putreg(R);
      } else {
        Reg R = get();
        PH.setInt(Type::I, R, 0);
        PH.ret(Type::I, R);
        V.putreg(R);
      }
      return;
    }
    case Stmt::ExprStmt: {
      Reg R = genExpr(*S.E);
      V.putreg(R);
      return;
    }
    }
    unreachable("bad Stmt kind");
  }

  Reg genExpr(const Expr &E) {
    switch (E.Kind) {
    case Expr::Num: {
      Reg R = get();
      PH.setInt(Type::I, R, uint64_t(int64_t(int32_t(E.Value))));
      return R;
    }
    case Expr::Var: {
      Local L = lookupVar(E.Name, E.Line);
      Reg R = get();
      PH.loadImm(Type::I, R, V.spReg(), L.Off);
      return R;
    }
    case Expr::Call:
      return genCall(E);
    case Expr::Op:
      break;
    }

    switch (E.Operation) {
    case EOp::Neg: {
      Reg R = genExpr(*E.Kids[0]);
      PH.unop(UnOp::Neg, Type::I, R, R);
      return R;
    }
    case EOp::LogNot: {
      Reg R = genExpr(*E.Kids[0]);
      PH.unop(UnOp::Not, Type::I, R, R);
      return R;
    }
    case EOp::LogAnd:
    case EOp::LogOr: {
      bool IsAnd = E.Operation == EOp::LogAnd;
      Label LShort = V.genLabel(), LEnd = V.genLabel();
      Reg A = genExpr(*E.Kids[0]);
      PH.branchImm(IsAnd ? Cond::Eq : Cond::Ne, Type::I, A, 0, LShort);
      V.putreg(A);
      Reg B = genExpr(*E.Kids[1]);
      PH.branchImm(IsAnd ? Cond::Eq : Cond::Ne, Type::I, B, 0, LShort);
      V.putreg(B);
      Reg R = get();
      PH.setInt(Type::I, R, IsAnd ? 1 : 0);
      PH.jmp(LEnd);
      PH.label(LShort);
      PH.setInt(Type::I, R, IsAnd ? 0 : 1);
      PH.label(LEnd);
      return R;
    }
    default:
      break;
    }

    Reg A = genExpr(*E.Kids[0]);
    Reg B = genExpr(*E.Kids[1]);
    switch (E.Operation) {
    case EOp::Add:
      PH.binop(BinOp::Add, Type::I, A, A, B);
      break;
    case EOp::Sub:
      PH.binop(BinOp::Sub, Type::I, A, A, B);
      break;
    case EOp::Mul:
      PH.binop(BinOp::Mul, Type::I, A, A, B);
      break;
    case EOp::Div:
      PH.binop(BinOp::Div, Type::I, A, A, B);
      break;
    case EOp::Mod:
      PH.binop(BinOp::Mod, Type::I, A, A, B);
      break;
    case EOp::Eq:
    case EOp::Ne:
    case EOp::Lt:
    case EOp::Le:
    case EOp::Gt:
    case EOp::Ge: {
      Cond C;
      switch (E.Operation) {
      case EOp::Eq:
        C = Cond::Eq;
        break;
      case EOp::Ne:
        C = Cond::Ne;
        break;
      case EOp::Lt:
        C = Cond::Lt;
        break;
      case EOp::Le:
        C = Cond::Le;
        break;
      case EOp::Gt:
        C = Cond::Gt;
        break;
      default:
        C = Cond::Ge;
        break;
      }
      Label LTrue = V.genLabel(), LEnd = V.genLabel();
      PH.branch(C, Type::I, A, B, LTrue);
      PH.setInt(Type::I, A, 0);
      PH.jmp(LEnd);
      PH.label(LTrue);
      PH.setInt(Type::I, A, 1);
      PH.label(LEnd);
      break;
    }
    default:
      unreachable("bad binary operation");
    }
    V.putreg(B);
    return A;
  }

  Reg genCall(const Expr &E) {
    // Evaluate arguments left to right into temporaries.
    std::vector<Reg> ArgVals;
    for (const auto &K : E.Kids)
      ArgVals.push_back(genExpr(*K));
    PH.flush(); // the call machinery below bypasses the window
    std::string Sig;
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Sig += "%i";
    if (E.Kids.empty())
      Sig = "%v";
    V.callBegin(Sig.c_str());
    for (Reg R : ArgVals)
      V.callArg(R);
    for (Reg R : ArgVals)
      V.putreg(R);
    // Calls go through the function table so recursion and forward
    // references resolve once the callee is (re)defined.
    SimAddr Slot = Resolve(E.Name);
    Reg Fn = V.getreg(Type::P);
    if (!Fn.isValid())
      fatalKind(CgErrKind::RegisterPressure, "tcc: out of registers in call");
    V.setp(Fn, Slot);
    V.ldpi(Fn, Fn, 0);
    V.callReg(Fn);
    V.putreg(Fn);
    Reg R = get();
    PH.unop(UnOp::Mov, Type::I, R, V.retvalReg(Type::I));
    return R;
  }

  VCode V;
  Peephole PH; // the §6.2 peephole layer, pass-through when not optimizing
  sim::Memory &Mem;
  std::function<SimAddr(const std::string &)> Resolve;
  std::map<std::string, Local> Vars;
  bool NonLeaf = false;
};

} // namespace

// --- Tcc driver ------------------------------------------------------------------

SimAddr Tcc::slotFor(const std::string &Name) {
  FnInfo &F = Functions[Name];
  if (!F.Slot) {
    F.Slot = Mem.alloc(8, 8);
    Mem.write<uint64_t>(F.Slot, 0);
  }
  return F.Slot;
}

void Tcc::registerFn(const std::string &Name, unsigned Arity, CodePtr Code) {
  slotFor(Name);
  FnInfo &Info = Functions[Name];
  Info.Entry = Code.Entry;
  Info.Arity = Arity;
  Info.Defined = true;
  // Patch the function table (word-sized pointer).
  if (Tgt.info().WordBytes == 8)
    Mem.write<uint64_t>(Info.Slot, Code.Entry);
  else
    Mem.write<uint32_t>(Info.Slot, uint32_t(Code.Entry));
}

CodePtr Tcc::compile(const std::string &Source) {
  VCODE_TM_TICK(TmCompile);
  Parser P(Source);
  FunctionAst F = P.parseFunction();

  CodeGen CG(Tgt, Mem, GenTier,
             [this](const std::string &Name) { return slotFor(Name); });
  // The function-table slots slotFor() lazily creates during emission must
  // survive across attempts, so failed regions are NOT released back to
  // the arena (the leak is bounded by the geometric growth: less than the
  // final region size in total).
  GenerateOptions Opts;
  Opts.InitialBytes = InitialCodeBytes;
  Opts.GenTier = GenTier;
  GenerateResult R = generateWithRetry(
      CG.vcode(), [&](size_t N) { return Mem.allocCode(N); },
      [&](CodeMem CM) { return CG.generateInto(F, CM); }, Opts);
  if (!R.ok())
    fatalKind(R.Err.Kind, "tcc: compiling '%s': %s", F.Name.c_str(),
              R.Err.Detail);
  Attempts = R.Attempts;
  RegionBytes = R.RegionBytes;
  registerFn(F.Name, unsigned(F.Params.size()), R.Code);
  VCODE_TM_SPAN("tcc.compile", TmCompile);
  VCODE_TM_COUNT("tcc.compiles", 1);
  return R.Code;
}

std::string Tcc::sharedCacheKey(const std::string &Source) const {
  // Deliberately tier-independent: promotion swaps code versions under
  // this same key rather than caching tiers side by side.
  std::string Key = "tcc|";
  Key += Tgt.info().Name;
  Key += '|';
  Key += Source;
  return Key;
}

CodePtr Tcc::compileShared(CodeCache &Cache, const std::string &Source) {
  // Parse unconditionally: cheap next to code generation, and a cache hit
  // still needs the name/arity to register the function locally.
  Parser P(Source);
  FunctionAst F = P.parseFunction();

  std::string Key = sharedCacheKey(Source);
  unsigned MyAttempts = 0;
  size_t MyRegionBytes = 0;
  bool Generated = false;
  CodeCache::Handle H = Cache.lookupOrGenerate(
      Key, [&](CodeCache::RegionAlloc &Alloc) {
        Generated = true;
        CodeGen CG(Tgt, Mem, GenTier,
                   [this](const std::string &Name) { return slotFor(Name); });
        GenerateOptions Opts;
        Opts.InitialBytes = InitialCodeBytes;
        Opts.GenTier = GenTier;
        GenerateResult R = generateWithRetry(
            CG.vcode(), [&](size_t N) { return Alloc(N); },
            [&](CodeMem CM) { return CG.generateInto(F, CM); }, Opts);
        MyAttempts = R.Attempts;
        MyRegionBytes = R.RegionBytes;
        return R;
      });
  if (!H.valid())
    fatalKind(H.error().Kind, "tcc: shared compile of '%s' failed: %s",
              F.Name.c_str(), H.error().Detail);
  SharedPins.push_back(H);
  Attempts = Generated ? MyAttempts : 0;
  RegionBytes = Generated ? MyRegionBytes : H.regionBytes();
  registerFn(F.Name, unsigned(F.Params.size()), H.code());
  Shared[F.Name] = SharedInfo{&Cache, std::move(Key), Source, H};
  VCODE_TM_COUNT("tcc.compiles_shared", 1);
  return H.code();
}

bool Tcc::promoteShared(const std::string &Name, SharedInfo &SI) {
  bool Swapped =
      SI.Cache->promote(SI.Key, [&](CodeCache::RegionAlloc &Alloc) {
        Parser P(SI.Source);
        FunctionAst F = P.parseFunction();
        CodeGen CG(Tgt, Mem, Tier::Tier1,
                   [this](const std::string &N) { return slotFor(N); });
        GenerateOptions Opts;
        Opts.InitialBytes = InitialCodeBytes;
        Opts.GenTier = Tier::Tier1;
        return generateWithRetry(
            CG.vcode(), [&](size_t N) { return Alloc(N); },
            [&](CodeMem CM) { return CG.generateInto(F, CM); }, Opts);
      });
  if (Swapped) {
    // Re-patch this instance's function table so table-mediated calls
    // (recursion, callees) reach the promoted code too.
    registerFn(Name, Functions[Name].Arity, SI.H.code());
    VCODE_TM_COUNT("tcc.promotions", 1);
  }
  return Swapped;
}

CodePtr Tcc::compileInto(const std::string &Source, CodeMem CM, CgError *Err) {
  Parser P(Source);
  FunctionAst F = P.parseFunction();

  CodeGen CG(Tgt, Mem, GenTier,
             [this](const std::string &Name) { return slotFor(Name); });
  CodePtr Code;
  if (Err) {
    *Err = CgError{};
    RecoveryScope Scope(CG.vcode());
    try {
      Code = CG.generateInto(F, CM);
    } catch (const CgAbort &) {
      CG.vcode().abandon();
    }
    if (!Code.isValid()) {
      *Err = CG.vcode().lastError();
      return CodePtr{};
    }
  } else {
    Code = CG.generateInto(F, CM);
  }
  Attempts = 1;
  RegionBytes = CM.Size;
  registerFn(F.Name, unsigned(F.Params.size()), Code);
  return Code;
}

SimAddr Tcc::lookup(const std::string &Name) const {
  auto It = Functions.find(Name);
  if (It == Functions.end() || !It->second.Defined)
    fatal("tcc: unknown function '%s'", Name.c_str());
  return It->second.Entry;
}

unsigned Tcc::arity(const std::string &Name) const {
  auto It = Functions.find(Name);
  if (It == Functions.end() || !It->second.Defined)
    fatal("tcc: unknown function '%s'", Name.c_str());
  return It->second.Arity;
}

int32_t Tcc::run(sim::Cpu &Cpu, const std::string &Name,
                 const std::vector<int32_t> &Args) {
  if (Args.size() != arity(Name))
    fatal("tcc: '%s' takes %u arguments, got %zu", Name.c_str(), arity(Name),
          Args.size());
  std::vector<sim::TypedValue> TV;
  for (int32_t A : Args)
    TV.push_back(sim::TypedValue::fromInt(A));
  // Shared functions dispatch through the cache handle: a pinned version
  // until promotion (the pin keeps the region alive across a concurrent
  // swap; execution counts feed the hot-function threshold), the final
  // version unpinned after it.
  auto It = Shared.find(Name);
  if (It != Shared.end() && It->second.H.valid())
    return It->second.H.dispatch(
        HotThreshold, [&] { return promoteShared(Name, It->second); },
        [&](const CodeCache::Version &V) {
          return Cpu.call(V.Code.Entry, TV, Type::I).asInt32();
        });
  return Cpu.call(lookup(Name), TV, Type::I).asInt32();
}

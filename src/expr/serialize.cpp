#include "expr/serialize.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace rvsym::expr {

namespace {

bool nameSerializable(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name)
    if (std::isspace(static_cast<unsigned char>(c))) return false;
  return true;
}

struct LineParser {
  std::string_view line;
  std::size_t pos = 0;

  std::optional<std::string_view> token() {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) return std::nullopt;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    return line.substr(start, pos - start);
  }
};

std::optional<std::uint64_t> parseU64(std::string_view tok, int base = 10) {
  if (tok.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : tok) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (base == 16 && c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else if (base == 16 && c >= 'A' && c <= 'F')
      digit = static_cast<std::uint64_t>(c - 'A' + 10);
    else
      return std::nullopt;
    v = v * static_cast<std::uint64_t>(base) + digit;
  }
  return v;
}

std::optional<Kind> kindByName(std::string_view tok) {
  for (int k = 0; k <= static_cast<int>(Kind::Ite); ++k)
    if (tok == kindName(static_cast<Kind>(k))) return static_cast<Kind>(k);
  return std::nullopt;
}

ExprRef buildNode(ExprBuilder& eb, Kind kind, const ExprRef& a,
                  const ExprRef& b, const ExprRef& c) {
  switch (kind) {
    case Kind::Add: return eb.add(a, b);
    case Kind::Sub: return eb.sub(a, b);
    case Kind::Mul: return eb.mul(a, b);
    case Kind::UDiv: return eb.udiv(a, b);
    case Kind::SDiv: return eb.sdiv(a, b);
    case Kind::URem: return eb.urem(a, b);
    case Kind::SRem: return eb.srem(a, b);
    case Kind::And: return eb.andOp(a, b);
    case Kind::Or: return eb.orOp(a, b);
    case Kind::Xor: return eb.xorOp(a, b);
    case Kind::Not: return eb.notOp(a);
    case Kind::Neg: return eb.neg(a);
    case Kind::Shl: return eb.shl(a, b);
    case Kind::LShr: return eb.lshr(a, b);
    case Kind::AShr: return eb.ashr(a, b);
    case Kind::Eq: return eb.eq(a, b);
    case Kind::Ult: return eb.ult(a, b);
    case Kind::Ule: return eb.ule(a, b);
    case Kind::Slt: return eb.slt(a, b);
    case Kind::Sle: return eb.sle(a, b);
    case Kind::Concat: return eb.concat(a, b);
    case Kind::Ite: return eb.ite(a, b, c);
    default: return nullptr;  // Constant/Variable/Extract/ZExt/SExt: special
  }
}

}  // namespace

std::optional<std::string> serializeNodes(const std::vector<ExprRef>& roots) {
  // Iterative post-order over the union DAG; each node serializes once.
  std::unordered_map<const Expr*, std::uint64_t> ids;
  std::vector<const Expr*> stack;
  std::string out;
  char buf[96];

  const auto emit = [&](const Expr& e) -> bool {
    const std::uint64_t id = ids.size();
    switch (e.kind()) {
      case Kind::Constant:
        std::snprintf(buf, sizeof buf, "n%" PRIu64 " const 0x%" PRIx64 " %u\n",
                      id, e.constantValue(), e.width());
        out += buf;
        break;
      case Kind::Variable:
        if (!nameSerializable(e.name())) return false;
        std::snprintf(buf, sizeof buf, "n%" PRIu64 " var ", id);
        out += buf;
        out += e.name();
        std::snprintf(buf, sizeof buf, " %u\n", e.width());
        out += buf;
        break;
      case Kind::Extract:
        std::snprintf(buf, sizeof buf, "n%" PRIu64 " extract n%" PRIu64
                                       " %u %u\n",
                      id, ids.at(e.operand(0).get()), e.extractLow(),
                      e.width());
        out += buf;
        break;
      case Kind::ZExt:
      case Kind::SExt:
        std::snprintf(buf, sizeof buf, "n%" PRIu64 " %s n%" PRIu64 " %u\n", id,
                      kindName(e.kind()), ids.at(e.operand(0).get()),
                      e.width());
        out += buf;
        break;
      default: {
        std::snprintf(buf, sizeof buf, "n%" PRIu64 " %s", id,
                      kindName(e.kind()));
        out += buf;
        for (int i = 0; i < e.numOperands(); ++i) {
          std::snprintf(buf, sizeof buf, " n%" PRIu64,
                        ids.at(e.operand(i).get()));
          out += buf;
        }
        out += '\n';
        break;
      }
    }
    ids.emplace(&e, id);
    return true;
  };

  for (const ExprRef& root : roots) {
    if (!root) return std::nullopt;
    stack.push_back(root.get());
    while (!stack.empty()) {
      const Expr* node = stack.back();
      if (ids.count(node) != 0) {
        stack.pop_back();
        continue;
      }
      bool ready = true;
      for (int i = 0; i < node->numOperands(); ++i) {
        const Expr* op = node->operand(i).get();
        if (ids.count(op) == 0) {
          ready = false;
          stack.push_back(op);
        }
      }
      if (!ready) continue;
      stack.pop_back();
      if (!emit(*node)) return std::nullopt;
    }
  }
  for (const ExprRef& root : roots) {
    std::snprintf(buf, sizeof buf, "root n%" PRIu64 "\n", ids.at(root.get()));
    out += buf;
  }
  return out;
}

std::optional<std::vector<ExprRef>> parseNodes(ExprBuilder& eb,
                                               std::string_view text,
                                               std::string* error) {
  const auto fail = [&](const std::string& why,
                        std::size_t line_no) -> std::optional<std::vector<ExprRef>> {
    if (error)
      *error = "line " + std::to_string(line_no) + ": " + why;
    return std::nullopt;
  };

  std::unordered_map<std::uint64_t, ExprRef> nodes;
  std::vector<ExprRef> roots;

  const auto ref = [&](std::string_view tok) -> ExprRef {
    if (tok.size() < 2 || tok[0] != 'n') return nullptr;
    const std::optional<std::uint64_t> id = parseU64(tok.substr(1));
    if (!id) return nullptr;
    const auto it = nodes.find(*id);
    return it == nodes.end() ? nullptr : it->second;
  };

  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string_view line = text.substr(
        start, nl == std::string_view::npos ? text.size() - start : nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;

    LineParser lp{line};
    const auto head = lp.token();
    if (!head) continue;

    if (*head == "root") {
      const auto tok = lp.token();
      ExprRef r = tok ? ref(*tok) : nullptr;
      if (!r) return fail("root references undefined node", line_no);
      roots.push_back(std::move(r));
      continue;
    }

    if (head->size() < 2 || (*head)[0] != 'n')
      return fail("expected node id", line_no);
    const std::optional<std::uint64_t> id = parseU64(head->substr(1));
    if (!id || nodes.count(*id) != 0)
      return fail("bad or duplicate node id", line_no);

    const auto kind_tok = lp.token();
    if (!kind_tok) return fail("missing kind", line_no);
    const std::optional<Kind> kind = kindByName(*kind_tok);
    if (!kind) return fail("unknown kind '" + std::string(*kind_tok) + "'",
                           line_no);

    ExprRef built;
    switch (*kind) {
      case Kind::Constant: {
        const auto vtok = lp.token();
        const auto wtok = lp.token();
        if (!vtok || !wtok || vtok->size() < 3 || vtok->substr(0, 2) != "0x")
          return fail("const wants 0x<hex> <width>", line_no);
        const auto v = parseU64(vtok->substr(2), 16);
        const auto w = parseU64(*wtok);
        if (!v || !w || *w == 0 || *w > 64)
          return fail("bad const value/width", line_no);
        built = eb.constant(*v, static_cast<unsigned>(*w));
        break;
      }
      case Kind::Variable: {
        const auto name = lp.token();
        const auto wtok = lp.token();
        if (!name || !wtok) return fail("var wants <name> <width>", line_no);
        const auto w = parseU64(*wtok);
        if (!w || *w == 0 || *w > 64) return fail("bad var width", line_no);
        built = eb.variable(std::string(*name), static_cast<unsigned>(*w));
        break;
      }
      case Kind::Extract: {
        const auto op = lp.token();
        const auto low = lp.token();
        const auto wtok = lp.token();
        ExprRef a = op ? ref(*op) : nullptr;
        const auto lo = low ? parseU64(*low) : std::nullopt;
        const auto w = wtok ? parseU64(*wtok) : std::nullopt;
        if (!a || !lo || !w)
          return fail("extract wants n<op> <low> <width>", line_no);
        built = eb.extract(std::move(a), static_cast<unsigned>(*lo),
                           static_cast<unsigned>(*w));
        break;
      }
      case Kind::ZExt:
      case Kind::SExt: {
        const auto op = lp.token();
        const auto wtok = lp.token();
        ExprRef a = op ? ref(*op) : nullptr;
        const auto w = wtok ? parseU64(*wtok) : std::nullopt;
        if (!a || !w) return fail("ext wants n<op> <width>", line_no);
        built = *kind == Kind::ZExt
                    ? eb.zext(std::move(a), static_cast<unsigned>(*w))
                    : eb.sext(std::move(a), static_cast<unsigned>(*w));
        break;
      }
      default: {
        ExprRef ops[3];
        const int n = arity(*kind);
        for (int i = 0; i < n; ++i) {
          const auto tok = lp.token();
          ops[i] = tok ? ref(*tok) : nullptr;
          if (!ops[i]) return fail("operand references undefined node",
                                   line_no);
        }
        built = buildNode(eb, *kind, ops[0], ops[1], ops[2]);
        break;
      }
    }
    if (!built) return fail("could not build node", line_no);
    nodes.emplace(*id, std::move(built));
  }
  if (roots.empty()) return fail("document has no root lines", line_no);
  return roots;
}

}  // namespace rvsym::expr

// Round-trippable text serialization for expression DAGs.
//
// print.hpp renders expressions for humans; this module renders them
// for machines: the slow-query corpus dumped by the solver telemetry
// (solver/telemetry.hpp) must be replayable offline by rvsym-profile,
// which means parsing the dumped constraints back into a fresh
// ExprBuilder. The format is a flat node list in topological order —
// one node per line, operands referenced by earlier line ids — so the
// parser is a single pass and shared subtrees serialize once:
//
//   n0 var instr 32
//   n1 const 0x33 7
//   n2 extract n0 0 7
//   n3 eq n2 n1
//
// Variables are serialized by name (ids are a per-builder accident);
// parsing re-creates them through ExprBuilder::variable, so parsing the
// same document into one builder twice yields pointer-identical roots.
// Because parsing replays the ops through the builder, constant folding
// and simplification re-run — a parsed root is structurally equal to
// the serialized one whenever the source was itself built by an
// ExprBuilder (as every solver query is).
//
// Variable names may not contain whitespace or newlines; every name the
// co-simulation creates ("instr_0", "reg_x1", ...) satisfies this and
// serializeNodes() refuses (returns empty) otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "expr/builder.hpp"
#include "expr/expr.hpp"

namespace rvsym::expr {

/// Serializes the DAGs rooted at `roots` as one shared node list.
/// Returns the node lines plus one "root nK" line per entry of `roots`,
/// in order. Returns std::nullopt if any reachable variable name
/// contains whitespace (unserializable).
std::optional<std::string> serializeNodes(const std::vector<ExprRef>& roots);

/// Parses a serializeNodes() document back into `eb`. Returns the root
/// expressions in serialization order, or std::nullopt with a
/// human-readable reason in `error`.
std::optional<std::vector<ExprRef>> parseNodes(ExprBuilder& eb,
                                               std::string_view text,
                                               std::string* error = nullptr);

}  // namespace rvsym::expr

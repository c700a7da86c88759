// Engine micro-benchmarks (google-benchmark): the building blocks whose
// cost determines how far the symbolic co-simulation scales — expression
// construction, SAT-backed feasibility checks, concrete ISS/RTL
// execution speed, one full co-simulation path, and the known-bits
// fast-path ablation.
#include <benchmark/benchmark.h>

#include "core/cosim.hpp"
#include "expr/builder.hpp"
#include "expr/eval.hpp"
#include "iss/iss.hpp"
#include "rtl/core.hpp"
#include "rv32/encode.hpp"
#include "solver/solver.hpp"
#include "symex/engine.hpp"


namespace {

using namespace rvsym;

// --- Expression layer -------------------------------------------------------

void BM_ExprBuildAdd32(benchmark::State& state) {
  expr::ExprBuilder eb;
  auto x = eb.variable("x", 32);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eb.add(x, eb.constant(i++ & 0xFFFF, 32)));
  }
}
BENCHMARK(BM_ExprBuildAdd32);

void BM_ExprInterningHit(benchmark::State& state) {
  expr::ExprBuilder eb;
  auto x = eb.variable("x", 32);
  auto y = eb.variable("y", 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eb.add(x, y));  // always the same node
  }
}
BENCHMARK(BM_ExprInterningHit);

void BM_ExprEvaluateDeepDag(benchmark::State& state) {
  expr::ExprBuilder eb;
  auto x = eb.variable("x", 64);
  expr::ExprRef e = x;
  for (int i = 0; i < 64; ++i) e = eb.add(e, e);
  expr::Assignment asg;
  asg.set(x->variableId(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::evaluate(e, asg));
  }
}
BENCHMARK(BM_ExprEvaluateDeepDag);

// --- Solver layer -------------------------------------------------------------

void BM_SolverDecoderQuery(benchmark::State& state) {
  // The hot co-simulation query shape: is `instr & mask == match`
  // feasible under a handful of prior field constraints?
  for (auto _ : state) {
    state.PauseTiming();
    expr::ExprBuilder eb;
    solver::PathSolver ps(eb);
    auto instr = eb.variable("instr", 32);
    ps.addConstraint(eb.eq(eb.extract(instr, 0, 7), eb.constant(0x33, 7)));
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        ps.check(eb.eq(eb.andOp(instr, eb.constant(0xFE00707Fu, 32)),
                       eb.constant(0x33u, 32))));
  }
}
BENCHMARK(BM_SolverDecoderQuery);

void BM_SolverArithmeticInversion(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    expr::ExprBuilder eb;
    solver::PathSolver ps(eb);
    auto x = eb.variable("x", 32);
    state.ResumeTiming();
    ps.addConstraint(
        eb.eq(eb.mul(x, eb.constant(3, 32)), eb.constant(0x99, 32)));
    benchmark::DoNotOptimize(ps.model());
  }
}
BENCHMARK(BM_SolverArithmeticInversion);

// --- Processor models (concrete execution speed) --------------------------------

void BM_IssConcreteStep(benchmark::State& state) {
  expr::ExprBuilder eb;
  symex::ExecState st(eb, {}, {});
  core::SymbolicInstrMemory imem([](symex::ExecState& s,
                                    const expr::ExprRef& w) {
    s.assume(s.builder().eqConst(w, rv32::enc::addi(1, 1, 1)));
  });
  core::InitialImage image;
  core::SymbolicDataMemory dmem(image);
  iss::IssConfig cfg;
  cfg.csr = iss::CsrConfig::specCorrect();
  iss::Iss iss(eb, imem, dmem, cfg);
  // Loop in place so the fetch cache stays warm.
  for (auto _ : state) {
    iss.setPc(eb.constant(0x80000000, 32));
    benchmark::DoNotOptimize(iss.step(st));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IssConcreteStep);

void BM_RtlConcreteInstruction(benchmark::State& state) {
  expr::ExprBuilder eb;
  symex::ExecState st(eb, {}, {});
  rtl::MicroRv32Core core(eb, rtl::fixedRtlConfig());
  const expr::ExprRef insn = eb.constant(rv32::enc::addi(1, 1, 1), 32);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    core.setPc(eb.constant(0x80000000, 32));
    bool retired = false;
    while (!retired) {
      core.tick(st);
      ++cycles;
      if (core.ibus.fetch_enable && !core.ibus.instruction_ready) {
        core.ibus.instruction = insn;
        core.ibus.instruction_ready = true;
      } else if (!core.ibus.fetch_enable) {
        core.ibus.instruction_ready = false;
      }
      retired = core.rvfi.valid;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles_per_instr"] =
      benchmark::Counter(static_cast<double>(cycles) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RtlConcreteInstruction);

// --- Full co-simulation -----------------------------------------------------------

void BM_CosimSymbolicExploration(benchmark::State& state) {
  // One bounded symbolic exploration of the authentic pair per iteration.
  for (auto _ : state) {
    core::CosimConfig cfg;
    cfg.instr_limit = 1;
    symex::EngineOptions opts;
    opts.stop_on_error = false;
    opts.max_paths = static_cast<std::uint64_t>(state.range(0));
    opts.collect_test_vectors = false;
    symex::Engine engine(opts);
    benchmark::DoNotOptimize(engine.run(core::cosimFactory(cfg)));
  }
}
BENCHMARK(BM_CosimSymbolicExploration)->Arg(25)->Arg(100);

void BM_KnownBitsAblation(benchmark::State& state) {
  // The same exploration with / without the known-bits fast path;
  // range(0)==1 enables it.
  const bool use_kb = state.range(0) != 0;
  for (auto _ : state) {
    core::CosimConfig cfg;
    cfg.instr_limit = 1;
    symex::EngineOptions opts;
    opts.stop_on_error = false;
    opts.max_paths = 50;
    opts.use_known_bits = use_kb;
    opts.collect_test_vectors = false;
    symex::Engine engine(opts);
    const auto report = engine.run(core::cosimFactory(cfg));
    state.counters["solver_checks"] =
        benchmark::Counter(static_cast<double>(report.solver_checks));
    state.counters["knownbits_hits"] =
        benchmark::Counter(static_cast<double>(report.knownbits_decided));
  }
}
BENCHMARK(BM_KnownBitsAblation)->Arg(1)->Arg(0);

void BM_ParallelExplorationJobs(benchmark::State& state) {
  // Jobs-scaling: the same bounded exploration on range(0) workers.
  // The committer hands out path prefixes in sequential searcher order,
  // so path/instruction counts are identical for every jobs value; only
  // wall-clock and cache traffic change.
  const unsigned jobs = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    core::CosimConfig cfg;
    cfg.instr_limit = 1;
    symex::EngineOptions opts;
    opts.stop_on_error = false;
    opts.max_paths = 100;
    opts.collect_test_vectors = false;
    opts.jobs = jobs;
    symex::Engine engine(opts);
    const auto report = engine.run(core::cosimFactory(cfg));
    state.counters["paths"] =
        benchmark::Counter(static_cast<double>(report.totalPaths()));
    state.counters["qcache_hits"] =
        benchmark::Counter(static_cast<double>(report.qcache_hits));
  }
}
BENCHMARK(BM_ParallelExplorationJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();

// perfbench: fixed-work workload runner behind perfbench/run.py.
//
// Runs one workload over an explicit list of case seeds, in the order
// given, and prints one JSON object with the raw measurements and the
// outputs run.py checks against perfbench/reference.json. It drives only
// the library's public API (core::train_agent, core::deploy_agent, the
// circuits::make_*_problem factories) and measures layers from outside with
// the decorators in probes.hpp. The library's own trace recorder stays off.
//
//   perfbench --workload tia_train --cases 13,11,12 [--trace 1] [--slowdown 1.5]
//   perfbench --workload ngm_pex_deploy --cases 32,31 [--trace 1]
//
// The work of one case is fixed per workload (kWorkloads below); run.py
// chooses the cases and their order.
// --trace 1 runs every case twice, unprobed and probed (order alternating
// per case), so the probe overhead is measured on the same work.
// --slowdown F > 1 inserts the sim probe alone and spins after every leaf
// call for (F - 1) x its duration: the planted regression of the self-test.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autockt/autockt.hpp"
#include "circuits/problems.hpp"
#include "eval/cached_backend.hpp"
#include "eval/thread_pool.hpp"
#include "eval/threaded_backend.hpp"
#include "probes.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace autockt;
using perfbench::now_ns;

// ---- tiny JSON writer --------------------------------------------------------

class Json {
 public:
  Json& key(const char* k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ << buf;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& num(long v) {
    sep();
    out_ << v;
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    out_ << '"' << s << '"';
    return *this;
  }
  Json& nums(const std::vector<double>& v) {
    open('[');
    for (double x : v) num(x);
    return close(']');
  }
  Json& open(char c) {
    sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  std::string text() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// ---- process facts -------------------------------------------------------------

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---- workloads -----------------------------------------------------------------

/// The fixed work of one case of a workload.
struct Workload {
  const char* name;
  const char* circuit;  // the problem trained on
  int iterations;       // PPO iterations (deploy: of the set-up training)
  int epochs;           // PPO epochs per iteration
  int setup_reps;       // train: set-ups timed per case
  int jobs;             // deploy: design jobs per case
  int targets;          // deploy: targets per job
  int reps;             // deploy: passes over the jobs per set-up
};

// TIA trains with 1 PPO epoch instead of the calibrated 8 (and 8
// iterations instead of 4, to keep the amount of work), so that the
// simulator leaf, not the PPO update, dominates its wall time: a 1.5x
// slower leaf costs about +38% wall_s here, against about +20% with 8
// epochs. Two-stage keeps the calibrated 8 epochs, where the update
// dominates. The deploy set-up trains its agent for 12 iterations, enough
// to reach about two thirds of the PEX targets, as a deployed agent would.
constexpr Workload kWorkloads[] = {
    {"tia_train", "tia", 8, 1, 25, 0, 0, 0},
    {"two_stage_train", "two_stage", 4, 8, 25, 0, 0, 0},
    {"ngm_pex_deploy", "ngm", 12, 8, 1, 30, 8, 3},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Args {
  const Workload* workload = nullptr;
  std::vector<std::uint64_t> cases;
  bool trace = false;
  double slowdown = 1.0;
};

/// Calibrated training settings per circuit (docs/EXPERIMENTS.md), with the
/// workload's iteration and epoch counts and early stopping made
/// unreachable.
core::AutoCktConfig train_config(const Workload& w, std::uint64_t seed) {
  const std::string problem = w.circuit;
  core::AutoCktConfig config;
  config.seed = seed;
  if (problem == "tia") {
    config.env_config.horizon = 30;
    config.ppo.steps_per_iteration = 1200;
    config.ppo.entropy_coef = 0.008;
  } else if (problem == "two_stage") {
    config.env_config.horizon = 45;
    config.ppo.steps_per_iteration = 2000;
    config.ppo.entropy_coef = 0.01;
  } else {  // ngm
    config.env_config.horizon = 40;
    config.ppo.steps_per_iteration = 1500;
    config.ppo.entropy_coef = 0.008;
  }
  config.ppo.max_iterations = w.iterations;
  config.ppo.epochs = w.epochs;
  config.ppo.target_mean_reward = 1e300;
  config.ppo.target_goal_rate = 2.0;
  return config;
}

circuits::SizingProblem make_problem(const std::string& which,
                                     const circuits::ProblemOptions& options) {
  if (which == "tia") return circuits::make_tia_problem(options);
  if (which == "two_stage") return circuits::make_two_stage_problem(options);
  if (which == "ngm") return circuits::make_ngm_problem(options);
  return circuits::make_ngm_pex_problem(options);
}

/// The probes of one problem; null members when a probe is not inserted.
struct Probes {
  std::shared_ptr<perfbench::EvalProbe> eval;
  std::shared_ptr<perfbench::SimProbe> sim;
};

/// Rebuilds the factory's Cached(X) as Cached(SimProbe(X)) and, when
/// `eval_probe`, wraps the result in an EvalProbe.
Probes insert_probes(circuits::SizingProblem& problem, bool eval_probe,
                     double slowdown, long sims_per_point) {
  auto cached = std::dynamic_pointer_cast<eval::CachedBackend>(problem.backend);
  if (!cached) throw std::runtime_error("expected a CachedBackend stack top");
  Probes probes;
  probes.sim = std::make_shared<perfbench::SimProbe>(cached->inner(),
                                                     sims_per_point, slowdown);
  problem.backend =
      std::make_shared<eval::CachedBackend>(probes.sim, cached->store());
  if (eval_probe) {
    probes.eval = std::make_shared<perfbench::EvalProbe>(problem.backend);
    problem.backend = probes.eval;
  }
  return probes;
}

/// True when batches reach a batched-kernel leaf whole, so the thread-pool
/// layer forwards them and its workers stay idle.
bool leaf_takes_batches(const circuits::SizingProblem& problem) {
  auto cached = std::dynamic_pointer_cast<eval::CachedBackend>(problem.backend);
  if (!cached) return false;
  auto threaded =
      std::dynamic_pointer_cast<eval::ThreadPoolBackend>(cached->inner());
  return threaded && threaded->inner()->prefers_batch();
}

void write_eval_delta(Json& j, const eval::EvalStats& d) {
  j.key("sims").num(d.simulations);
  j.key("cache_hits").num(d.cache_hits);
  j.key("cache_misses").num(d.cache_misses);
  j.key("newton_iterations").num(d.newton_iterations);
  j.key("numeric_factorizations").num(d.numeric_factorizations);
  j.key("dense_fallbacks").num(d.dense_fallbacks);
  j.key("warm_start_attempts").num(d.warm_start_attempts);
  j.key("warm_start_hits").num(d.warm_start_hits);
  j.key("batch_lanes").num(d.batch_lanes);
  j.key("batch_lane_fallbacks").num(d.batch_lane_fallbacks);
}

/// Fields shared by every pass: timed-phase length, eval deltas, the memo
/// size (unique keys simulated) and, for probed passes, the layer figures.
void write_phase(Json& j, std::int64_t wall_ns, const eval::EvalStats& delta,
                 const circuits::SizingProblem& problem, long sims_per_point,
                 double cpu_s, const Probes& probes,
                 std::int64_t inflight_ns, std::int64_t outside_ns) {
  j.key("wall_s").num(seconds(wall_ns));
  j.key("cpu_s").num(cpu_s);
  write_eval_delta(j, delta);
  // The memo sits under the probe (if any); its size is the number of
  // distinct keys the leaf evaluated in this fresh problem.
  std::shared_ptr<eval::EvalBackend> top = problem.backend;
  if (probes.eval) top = probes.eval->inner();
  auto cached = std::dynamic_pointer_cast<eval::CachedBackend>(top);
  j.key("cache_entries").num(static_cast<long>(cached ? cached->size() : 0));
  j.key("sims_per_point").num(sims_per_point);
  if (!probes.eval) return;
  j.key("probe").open('{');
  j.key("eval_points").num(probes.eval->points());
  j.key("eval_busy_s").num(probes.eval->busy_s());
  j.key("inflight_ns").num(static_cast<long>(inflight_ns));
  j.key("outside_ns").num(static_cast<long>(outside_ns));
  j.key("batch_ms").nums(probes.eval->batch_ms());
  j.key("sim_points").num(probes.sim->points());
  j.key("sim_failed_points").num(probes.sim->failed_points());
  j.key("sim_busy_s").num(probes.sim->busy_s());
  j.key("dup_sims").num(probes.sim->dup_sims());
  j.close('}');
}

/// Phase clock: the probe's in-flight timeline when probed (so eval + rl
/// add up to the wall time exactly), else a plain steady clock.
struct PhaseClock {
  perfbench::EvalProbe* probe = nullptr;
  std::int64_t t0 = 0;
  std::int64_t inflight_ns = 0;
  std::int64_t outside_ns = 0;

  void start() {
    if (probe) probe->timeline().start();
    t0 = now_ns();
  }
  std::int64_t stop() {
    const std::int64_t wall = now_ns() - t0;
    if (!probe) return wall;
    const std::int64_t phase = probe->timeline().stop();
    inflight_ns = probe->timeline().inflight_ns();
    outside_ns = probe->timeline().outside_ns();
    if (inflight_ns + outside_ns != phase) {
      throw std::runtime_error("in-flight timeline does not cover the phase");
    }
    return phase;
  }
};

struct Budget {
  int nproc = 1;
  int pool_threads = 1;
  int runnable = 1;
  bool pipeline = true;
};

void run_train_pass(Json& j, const Args& a, std::uint64_t case_seed,
                    bool probed, Budget& budget) {
  const Workload& w = *a.workload;
  const int workers = 2;
  budget.pipeline = budget.nproc >= 2 * workers;
  budget.pool_threads = std::max(1, budget.nproc - 2 * workers);

  std::vector<double> setup_s;
  std::shared_ptr<const circuits::SizingProblem> problem;
  Probes probes;
  bool idle_pool = false;
  const bool sim_probe = probed || a.slowdown > 1.0;
  for (int r = 0; r < w.setup_reps; ++r) {
    problem.reset();  // tear the previous stack down outside the clock
    probes = Probes{};
    const std::int64_t t0 = now_ns();
    circuits::ProblemOptions options;
    options.pool = std::make_shared<eval::ThreadPool>(
        static_cast<std::size_t>(budget.pool_threads));
    circuits::SizingProblem built = make_problem(w.circuit, options);
    idle_pool = leaf_takes_batches(built);
    probes = sim_probe ? insert_probes(built, probed, a.slowdown, 1) : Probes{};
    problem = std::make_shared<const circuits::SizingProblem>(std::move(built));
    setup_s.push_back(seconds(now_ns() - t0));
  }
  budget.runnable = workers * (budget.pipeline ? 2 : 1) +
                    (idle_pool ? 0 : budget.pool_threads);

  core::AutoCktConfig config = train_config(w, case_seed);
  config.ppo.num_workers = workers;
  config.ppo.envs_per_worker = 4;
  config.ppo.pipeline_inference = budget.pipeline;

  std::vector<double> iter_ms, goal_rate, mean_reward;
  PhaseClock clock{probes.eval.get()};
  const eval::EvalStats before = problem->eval_stats();
  const double cpu0 = cpu_seconds();
  clock.start();
  std::int64_t last = clock.t0;
  core::TrainOutcome outcome = core::train_agent(
      problem, config, [&](const rl::IterationStats& s) {
        const std::int64_t t = now_ns();
        iter_ms.push_back(static_cast<double>(t - last) * 1e-6);
        last = t;
        goal_rate.push_back(s.goal_rate);
        mean_reward.push_back(s.mean_episode_reward);
      });
  const std::int64_t wall_ns = clock.stop();
  const double cpu_s = cpu_seconds() - cpu0;
  const eval::EvalStats delta = problem->eval_stats().since(before);

  j.open('{');
  j.key("case").num(static_cast<long>(case_seed));
  j.key("probed").num(static_cast<long>(probed));
  j.key("setup_s").nums(setup_s);
  j.key("env_steps").num(outcome.history.total_env_steps);
  j.key("iter_ms").nums(iter_ms);
  j.key("goal_rate").nums(goal_rate);
  j.key("mean_reward").nums(mean_reward);
  j.key("final_holdout").num(outcome.history.final_holdout_goal_rate);
  write_phase(j, wall_ns, delta, *problem, 1, cpu_s, probes, clock.inflight_ns,
              clock.outside_ns);
  j.close('}');
}

void run_deploy_pass(Json& j, const Args& a, std::uint64_t case_seed,
                     bool probed, Budget& budget) {
  const Workload& w = *a.workload;
  // One client thread drives deployment, and the PVT corners of each
  // point run serially inside CornerBackend on that thread. A fork-join
  // over the corners amplifies host contention: on a shared 4-vCPU host a
  // stolen vCPU stalls the whole batch, and with the corners fanned out
  // over 1-3 pool threads the run-to-run spread of wall_s (IQR / median,
  // 5 runs) was 0.42-0.59, against 0.06 serial (see README.md). Set-up
  // training runs two collectors (+ value helpers) against a batched leaf,
  // so the pool stays idle there.
  budget.pool_threads = 1;
  budget.pipeline = budget.nproc >= 4;
  budget.runnable = budget.pipeline ? 4 : 2;
  const long corners = static_cast<long>(circuits::ngm_pex_corner_count());

  const std::int64_t t0 = now_ns();
  circuits::ProblemOptions options;
  options.pool = std::make_shared<eval::ThreadPool>(
      static_cast<std::size_t>(budget.pool_threads));
  auto schematic = std::make_shared<const circuits::SizingProblem>(
      make_problem("ngm", options));
  core::AutoCktConfig config = train_config(w, case_seed);
  config.holdout_target_count = 0;
  config.ppo.pipeline_inference = budget.pipeline;
  core::TrainOutcome trained = core::train_agent(schematic, config);
  circuits::ProblemOptions pex_options = options;
  pex_options.parallel_corners = false;
  pex_options.parallel_batch = false;

  // Every rep deploys the same jobs onto a fresh PEX problem (empty memo),
  // so it repeats the same work and outputs: the agents of different cases
  // differ a lot in how much work their jobs take, so only repeats of one
  // case give a median over equal work. The first PEX problem is part of
  // set-up; later ones are built outside both clocks.
  std::vector<std::vector<circuits::SpecVector>> job_targets;
  for (int rep = 0; rep < w.reps; ++rep) {
    circuits::SizingProblem built = make_problem("ngm_pex", pex_options);
    const Probes probes =
        (probed || a.slowdown > 1.0)
            ? insert_probes(built, probed, a.slowdown, corners)
            : Probes{};
    auto pex = std::make_shared<const circuits::SizingProblem>(std::move(built));
    std::vector<double> setup_s;
    if (rep == 0) {
      setup_s.push_back(seconds(now_ns() - t0));
      // Inputs: job j's targets and deploy stream come from (case seed, j).
      for (int job = 0; job < w.jobs; ++job) {
        util::Rng rng(
            util::stream_seed(case_seed, static_cast<std::uint64_t>(job)));
        job_targets.push_back(env::sample_targets(
            *pex, static_cast<std::size_t>(w.targets), rng));
      }
    }

    std::vector<double> job_ms, reached, steps;
    long env_steps = 0;
    PhaseClock clock{probes.eval.get()};
    const eval::EvalStats before = pex->eval_stats();
    const double cpu0 = cpu_seconds();
    clock.start();
    for (int job = 0; job < w.jobs; ++job) {
      const std::int64_t s = now_ns();
      const core::DeployStats stats = core::deploy_agent(
          trained.agent, pex, job_targets[static_cast<std::size_t>(job)],
          config.env_config, /*stochastic=*/false,
          util::stream_seed(case_seed, static_cast<std::uint64_t>(job)));
      job_ms.push_back(static_cast<double>(now_ns() - s) * 1e-6);
      reached.push_back(stats.reached_count());
      steps.push_back(static_cast<double>(stats.total_sim_steps()));
      env_steps += stats.total_sim_steps();
    }
    const std::int64_t wall_ns = clock.stop();
    const double cpu_s = cpu_seconds() - cpu0;
    const eval::EvalStats delta = pex->eval_stats().since(before);

    j.open('{');
    j.key("case").num(static_cast<long>(case_seed));
    j.key("probed").num(static_cast<long>(probed));
    j.key("setup_s").nums(setup_s);
    j.key("env_steps").num(env_steps);
    j.key("job_ms").nums(job_ms);
    j.key("reached").nums(reached);
    j.key("steps").nums(steps);
    write_phase(j, wall_ns, delta, *pex, corners, cpu_s, probes,
                clock.inflight_ns, clock.outside_ns);
    j.close('}');
  }
}

std::vector<std::uint64_t> parse_cases(const std::string& text) {
  std::vector<std::uint64_t> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::stoull(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::CliArgs cli(argc, argv);
    Args a;
    a.workload = find_workload(cli.get("workload", ""));
    a.cases = parse_cases(cli.get("cases", ""));
    a.trace = cli.get_int("trace", 0) != 0;
    a.slowdown = cli.get_double("slowdown", 1.0);
    if (a.workload == nullptr || a.cases.empty() || !(a.slowdown >= 1.0)) {
      std::fprintf(stderr, "perfbench: bad arguments (see main.cpp usage)\n");
      return 2;
    }
    const bool deploy = a.workload->jobs > 0;

    Budget budget;
    budget.nproc = nproc();
    Json j;
    j.open('{');
    j.key("workload").str(a.workload->name);
    j.key("passes").open('[');
    for (std::size_t c = 0; c < a.cases.size(); ++c) {
      // Probed runs alternate which pass of a case goes first.
      std::vector<bool> passes{false};
      if (a.trace) passes = (c % 2 == 0) ? std::vector<bool>{false, true}
                                         : std::vector<bool>{true, false};
      for (bool probed : passes) {
        std::fprintf(stderr, "[perfbench] %s case %llu%s\n", a.workload->name,
                     static_cast<unsigned long long>(a.cases[c]),
                     probed ? " (probed)" : "");
        if (deploy) {
          run_deploy_pass(j, a, a.cases[c], probed, budget);
        } else {
          run_train_pass(j, a, a.cases[c], probed, budget);
        }
      }
    }
    j.close(']');
    j.key("nproc").num(static_cast<long>(budget.nproc));
    j.key("pool_threads").num(static_cast<long>(budget.pool_threads));
    j.key("threads_runnable").num(static_cast<long>(budget.runnable));
    j.key("peak_rss_mb").num(peak_rss_mb());
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

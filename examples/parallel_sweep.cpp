// Minimal tour of the parallel experiment runtime: fan a Monte Carlo
// sweep across worker threads with the SweepEngine, aggregate the result
// series with a SweepReport, and export a JSON artifact.
//
//   parallel_sweep [--instances N] [--jobs N] [--seed S] [--json PATH]
//
// Results are bit-identical for any --jobs value: each job's instance is
// sampled from a seed derived statelessly from (base seed, job index).
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/report.hpp"
#include "runtime/sweep.hpp"
#include "util/args.hpp"

namespace {

void print_usage(std::ostream& out, const std::string& program) {
  out << "usage: " << program
      << " [--instances N] [--jobs N] [--seed S] [--json PATH]\n"
         "  --instances  flow instances (default 8)\n"
         "  --jobs       worker threads (default 4)\n"
         "  --seed       base seed (default 7)\n"
         "  --json       write the report as a JSON artifact\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace imobif;

  const util::Args args(argc, argv);
  const auto reject = [&args](const std::exception& e) {
    std::cerr << args.program() << ": " << e.what() << "\n";
    print_usage(std::cerr, args.program());
    return 2;
  };
  std::size_t instances = 0;
  std::size_t jobs = 1;
  std::uint64_t seed = 0;
  try {
    instances = args.get_u64("instances", 8);
    const std::int64_t jobs_flag = args.get_int("jobs", 4);
    jobs = jobs_flag < 1 ? 1 : static_cast<std::size_t>(jobs_flag);
    seed = args.get_u64("seed", 7);
  } catch (const std::invalid_argument& e) {
    return reject(e);
  } catch (const std::out_of_range& e) {
    return reject(e);
  }

  exp::ScenarioParams params;
  params.node_count = 60;
  params.area_m = util::Meters{800.0};
  params.mean_flow_bits = util::Bits{100.0 * 1024.0 * 8.0};

  // One job per instance, every job replayed under iMobif.
  std::vector<runtime::SweepJob> sweep(instances);
  for (auto& job : sweep) {
    job.params = params;
    job.mode = core::MobilityMode::kInformed;
  }

  const runtime::SweepEngine engine(jobs);
  const auto outcomes = engine.run(sweep, seed);

  std::vector<double> total_energy, moved_m;
  for (const auto& outcome : outcomes) {
    total_energy.push_back(outcome.result.total_energy_j.value());
    moved_m.push_back(outcome.result.moved_distance_m.value());
    std::cout << "seed " << outcome.seed << "  hops " << outcome.hops
              << "  energy " << outcome.result.total_energy_j.value()
              << " J  moved " << outcome.result.moved_distance_m.value()
              << " m\n";
  }

  runtime::SweepReport report("parallel_sweep_example");
  report.set_meta("base_seed", seed);
  report.add_series("total_energy_j", total_energy);
  report.add_series("moved_distance_m", moved_m);

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    report.write_file(json_path);
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cout << report.to_string();
  }
  return 0;
}

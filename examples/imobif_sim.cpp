// imobif_sim: the general-purpose experiment driver.
//
// Runs N flow instances of a configurable scenario under all three
// approaches and prints per-instance energy/lifetime ratios with
// bootstrap confidence intervals, optionally writing a CSV. Scenario
// parameters come from --config FILE (key = value, see
// exp/scenario_io.hpp) overridden by individual --key flags.
//
//   $ ./imobif_sim --flows 50 --k 0.1 --mean_flow_kb 1024
//   $ ./imobif_sim --config scenario.conf --lifetime --csv out.csv
//   $ ./imobif_sim --print-config          # dump the effective scenario
#include <iostream>
#include <stdexcept>

#include "exp/experiments.hpp"
#include "exp/scenario_io.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace imobif;

util::Config config_from_args(const util::Args& args) {
  util::Config config;
  for (const std::string& key : args.keys()) {
    // Flags consumed directly by the driver, not the scenario.
    if (key == "config" || key == "flows" || key == "csv" ||
        key == "lifetime" || key == "print-config" || key == "help") {
      continue;
    }
    config.set(key, args.get_string(key));
  }
  return config;
}

void print_usage(std::ostream& out) {
  out <<
      "imobif_sim - iMobif experiment driver\n\n"
      "  --config FILE        load scenario from a key = value file\n"
      "  --flows N            flow instances to run (default 20)\n"
      "  --lifetime           lifetime experiment (stop at first death)\n"
      "  --csv FILE           also write per-instance rows as CSV\n"
      "  --print-config       dump the effective scenario and exit\n"
      "  --help               this text\n\n"
      "Any scenario key (see exp/scenario_io.hpp) is accepted as a flag,\n"
      "e.g. --k 0.1 --radio_alpha 3 --strategy max-lifetime --seed 7.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto reject = [&args](const std::exception& e) {
    std::cerr << args.program() << ": " << e.what() << "\n";
    print_usage(std::cerr);
    return 2;
  };
  std::size_t flows = 0;
  bool lifetime = false;
  bool print_config = false;
  try {
    if (args.get_bool("help")) {
      print_usage(std::cout);
      return 0;
    }
    flows = args.get_u64("flows", 20);
    lifetime = args.get_bool("lifetime");
    print_config = args.get_bool("print-config");
  } catch (const std::invalid_argument& e) {
    return reject(e);
  } catch (const std::out_of_range& e) {
    return reject(e);
  }

  exp::ScenarioParams params;
  params.mean_flow_bits = util::Bits{1024.0 * 1024.0 * 8.0};
  try {
    if (args.has("config")) {
      exp::apply_config(util::Config::from_file(args.get_string("config")),
                        params);
    }
    exp::apply_config(config_from_args(args), params);
    params.validate();
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }

  if (print_config) {
    std::cout << exp::to_config_string(params);
    return 0;
  }

  exp::RunOptions options;
  options.stop_on_first_death = lifetime;

  std::cout << "Running " << flows << " flow instances ("
            << (lifetime ? "lifetime" : "energy") << " experiment, strategy "
            << net::to_string(params.strategy) << ", k = "
            << params.mobility.k << ", alpha = " << params.radio.alpha
            << ", seed = " << params.seed << ")\n\n";

  const auto points = exp::run_comparison(params, flows, options);

  util::Table table({"flow", "length KB", "hops", "cost-unaware", "imobif",
                     "notifications"});
  std::vector<double> cu, in;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& pt = points[i];
    const double rc = lifetime ? pt.lifetime_ratio_cost_unaware()
                               : pt.energy_ratio_cost_unaware();
    const double ri = lifetime ? pt.lifetime_ratio_informed()
                               : pt.energy_ratio_informed();
    cu.push_back(rc);
    in.push_back(ri);
    table.add_row({std::to_string(i),
                   util::Table::num(pt.flow_bits.value() / 8192.0, 5),
                   std::to_string(pt.hops), util::Table::num(rc),
                   util::Table::num(ri),
                   std::to_string(pt.informed.notifications)});
  }
  table.print(std::cout);

  util::Summary cu_sum, in_sum;
  for (double v : cu) cu_sum.add(v);
  for (double v : in) in_sum.add(v);
  const util::Interval cu_ci = util::bootstrap_mean_ci(cu);
  const util::Interval in_ci = util::bootstrap_mean_ci(in);
  std::cout << "\ncost-unaware mean ratio " << util::Table::num(cu_sum.mean())
            << "  [95% CI " << util::Table::num(cu_ci.lo) << ", "
            << util::Table::num(cu_ci.hi) << "]\n"
            << "imobif       mean ratio " << util::Table::num(in_sum.mean())
            << "  [95% CI " << util::Table::num(in_ci.lo) << ", "
            << util::Table::num(in_ci.hi) << "]\n";

  if (args.has("csv")) {
    util::write_csv(args.get_string("csv"), table);
    std::cout << "\nwrote " << args.get_string("csv") << "\n";
  }
  return 0;
}

#include "snap/result_io.hpp"

#include <cstdint>
#include <utility>

#include "core/imobif_policy.hpp"
#include "snap/archive.hpp"

namespace imobif::snap {

util::Json result_to_json(const exp::RunResult& result) {
  util::Json doc = util::Json::object();
  doc.set("mode", util::Json(core::to_string(result.mode)));
  doc.set("completed", util::Json(result.completed));
  doc.set("delivered_bits", util::Json(result.delivered_bits.value()));
  doc.set("completion_s", util::Json(result.completion_s.value()));
  doc.set("transmit_energy_j", util::Json(result.transmit_energy_j.value()));
  doc.set("movement_energy_j", util::Json(result.movement_energy_j.value()));
  doc.set("total_energy_j", util::Json(result.total_energy_j.value()));
  doc.set("notifications", util::Json(result.notifications));
  doc.set("notify_retries", util::Json(result.notify_retries));
  doc.set("notifications_applied",
          util::Json(result.notifications_applied));
  doc.set("recruits", util::Json(result.recruits));
  doc.set("movements", util::Json(result.movements));
  doc.set("moved_distance_m", util::Json(result.moved_distance_m.value()));

  util::Json medium = util::Json::object();
  medium.set("broadcasts", util::Json(result.medium.broadcasts));
  medium.set("unicasts", util::Json(result.medium.unicasts));
  medium.set("delivered", util::Json(result.medium.delivered));
  medium.set("dropped_out_of_range",
             util::Json(result.medium.dropped_out_of_range));
  medium.set("dropped_dead", util::Json(result.medium.dropped_dead));
  medium.set("dropped_unknown", util::Json(result.medium.dropped_unknown));
  medium.set("dropped_injected", util::Json(result.medium.dropped_injected));
  medium.set("dropped_faulted", util::Json(result.medium.dropped_faulted));
  doc.set("medium", std::move(medium));

  doc.set("lifetime_s", util::Json(result.lifetime_s.value()));
  doc.set("any_death", util::Json(result.any_death));

  util::Json path = util::Json::array();
  for (const net::NodeId id : result.path) {
    path.push_back(util::Json(static_cast<std::uint64_t>(id)));
  }
  doc.set("path", std::move(path));

  util::Json positions = util::Json::array();
  for (const geom::Vec2& p : result.final_positions) {
    util::Json point = util::Json::array();
    point.push_back(util::Json(p.x));
    point.push_back(util::Json(p.y));
    positions.push_back(std::move(point));
  }
  doc.set("final_positions", std::move(positions));

  util::Json energies = util::Json::array();
  for (const util::Joules e : result.final_energies) {
    energies.push_back(util::Json(e.value()));
  }
  doc.set("final_energies", std::move(energies));
  return doc;
}

template <class Ar>
void fields(Ar& ar, exp::RunResult& x) {
  ar.begin_section("result");
  ar.enumeration(x.mode, core::MobilityMode::kInformed, "mobility mode");
  ar.boolean(x.completed);
  ar.quantity(x.delivered_bits);
  ar.quantity(x.completion_s);
  ar.quantity(x.transmit_energy_j);
  ar.quantity(x.movement_energy_j);
  ar.quantity(x.total_energy_j);
  ar.u64(x.notifications);
  ar.u64(x.notify_retries);
  ar.u64(x.notifications_applied);
  ar.u64(x.recruits);
  ar.u64(x.movements);
  ar.quantity(x.moved_distance_m);
  fields(ar, x.medium);
  ar.quantity(x.lifetime_s);
  ar.boolean(x.any_death);
  ar.seq(x.path);
  ar.seq(x.final_positions);
  ar.seq(x.final_energies);
  ar.end_section();
}

void encode_run_result(StateWriter& w, const exp::RunResult& result) {
  Writer ar(w);
  item(ar, result);
}

exp::RunResult decode_run_result(StateReader& r) {
  Reader in(r);
  return in.read<exp::RunResult>();
}

void save_result(const std::string& path, const exp::RunResult& result) {
  StateWriter writer;
  encode_run_result(writer, result);
  writer.write_file(path);
}

exp::RunResult load_result(const std::string& path) {
  StateReader reader = StateReader::from_file(path);
  return decode_run_result(reader);
}

}  // namespace imobif::snap

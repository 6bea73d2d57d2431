#include "snap/archive.hpp"

#include "snap/state_hash.hpp"

namespace imobif::snap {

// A sim::Time travels as its i64 tick count.

template <typename Encoder>
void Writer<Encoder>::time(sim::Time t) { out_.i64(t.ticks()); }
template void Writer<StateWriter>::time(sim::Time);
template void Writer<StateHash>::time(sim::Time);

void Reader::time(sim::Time& t) { t = sim::Time::from_ticks(in_.i64()); }

}  // namespace imobif::snap

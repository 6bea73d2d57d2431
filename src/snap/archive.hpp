// Field-list archives (DESIGN.md §9).
//
// Every plain record in a snapshot or result stream has one field list,
//
//   template <class Ar> void fields(Ar& ar, T& x);
//
// naming each field with its wire primitive, in stream order. The same
// list is walked by a Writer (into a StateWriter or a StateHash) and by a
// Reader (out of a StateReader), so a record's layout is written down
// exactly once. A field list never asks which way it runs: everything
// direction-specific lives in the archives' primitives.
//
//   u8 u32 u64 i64 f64 boolean str  the seven codec scalars; integers of
//                                   any width are cast at the boundary
//   quantity     a util::Quantity as f64
//   time         a sim::Time as i64 ticks
//   enumeration  a u8 enum; the read rejects values past `last`
//   opt          std::optional: bool presence, then the value (item(),
//                or the element walk the list passes)
//   seq          std::vector: u64 count, then the elements; the read
//                reserves at most kReserveCap elements up front, so a
//                corrupt count fails on the short stream instead of
//                forcing a huge allocation
//   variant      std::variant: u8 alternative index, then its fields; the
//                read rejects an index past the last alternative
//
// Container elements and Reader::read<T>() go through item(), which picks
// the primitive from the type: f64, boolean, u64 for unsigned integers
// (ids, counts and RNG words), quantity, time, opt, seq, std::array
// element by element, and fields() for records.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "geom/vec2.hpp"
#include "net/medium.hpp"
#include "sim/time.hpp"
#include "snap/codec.hpp"
#include "util/units.hpp"

namespace imobif::snap {

/// The most elements a Reader reserves before it has read them.
inline constexpr std::uint64_t kReserveCap = std::uint64_t{1} << 20;

namespace detail {
template <class T, template <class...> class Tmpl>
inline constexpr bool is_a = false;
template <template <class...> class Tmpl, class... Args>
inline constexpr bool is_a<Tmpl<Args...>, Tmpl> = true;

template <class T>
inline constexpr bool is_quantity = false;
template <util::Dim D>
inline constexpr bool is_quantity<util::Quantity<D>> = true;

template <class T>
inline constexpr bool is_array = false;
template <class T, std::size_t N>
inline constexpr bool is_array<std::array<T, N>> = true;
}  // namespace detail

/// Walks one value with the primitive its type calls for (see above).
/// Field lists take T& so one list serves both archives; a Writer only
/// reads through it, which makes the const_cast below safe.
template <class Ar, class T>
void item(Ar& ar, T&& v) {
  using U = std::remove_cvref_t<T>;
  if constexpr (std::is_same_v<U, double>) {
    ar.f64(v);
  } else if constexpr (std::is_same_v<U, bool>) {
    ar.boolean(v);
  } else if constexpr (std::is_unsigned_v<U>) {
    ar.u64(v);
  } else if constexpr (detail::is_quantity<U>) {
    ar.quantity(v);
  } else if constexpr (std::is_same_v<U, sim::Time>) {
    ar.time(v);
  } else if constexpr (detail::is_a<U, std::optional>) {
    ar.opt(v);
  } else if constexpr (detail::is_a<U, std::vector>) {
    ar.seq(v);
  } else if constexpr (detail::is_array<U>) {
    for (auto& e : v) item(ar, e);
  } else {
    fields(ar, const_cast<U&>(v));
  }
}

/// The default element walk of opt(); a field list passes its own where
/// the element travels narrower than item() would write it.
struct ItemFn {
  template <class Ar, class T>
  void operator()(Ar& ar, T& v) const { item(ar, v); }
};

/// Writing archive over a TaggedEncoder (StateWriter or StateHash).
template <typename Encoder>
class Writer {
 public:
  explicit Writer(Encoder& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.u8(v); }
  void u32(std::uint32_t v) { out_.u32(v); }
  void u64(std::uint64_t v) { out_.u64(v); }
  void i64(std::int64_t v) { out_.i64(v); }
  void f64(double v) { out_.f64(v); }
  void boolean(bool v) { out_.boolean(v); }
  void str(std::string_view v) { out_.str(v); }
  template <util::Dim D>
  void quantity(util::Quantity<D> q) { out_.f64(q.value()); }
  void time(sim::Time t);  // archive.cpp, see Reader::time
  template <class E>
  void enumeration(E e, E /*last*/, const char* /*what*/) {
    out_.u8(static_cast<std::uint8_t>(e));
  }
  template <class T, class Each = ItemFn>
  void opt(const std::optional<T>& v, Each each = {}) {
    out_.boolean(v.has_value());
    if (v.has_value()) each(*this, *v);
  }
  template <class T>
  void seq(const std::vector<T>& v) {
    out_.u64(v.size());
    for (const T& e : v) item(*this, e);
  }
  template <class... Ts>
  void variant(const std::variant<Ts...>& v, const char* /*what*/) {
    out_.u8(static_cast<std::uint8_t>(v.index()));
    std::visit([this](const auto& alt) { item(*this, alt); }, v);
  }
  void begin_section(std::string_view name) { out_.begin_section(name); }
  void end_section() { out_.end_section(); }

 private:
  Encoder& out_;
};

/// Reading archive over a StateReader. Every mismatch throws
/// std::runtime_error, like the StateReader underneath.
class Reader {
 public:
  explicit Reader(StateReader& in) : in_(in) {}

  template <class T>
  void u8(T& v) { v = static_cast<T>(in_.u8()); }
  template <class T>
  void u32(T& v) { v = static_cast<T>(in_.u32()); }
  template <class T>
  void u64(T& v) { v = static_cast<T>(in_.u64()); }
  void i64(std::int64_t& v) { v = in_.i64(); }
  void f64(double& v) { v = in_.f64(); }
  void boolean(bool& v) { v = in_.boolean(); }
  void str(std::string& v) { v = in_.str(); }
  template <util::Dim D>
  void quantity(util::Quantity<D>& q) { q = util::Quantity<D>{in_.f64()}; }
  /// Both time() primitives live in archive.cpp, where the
  /// checkpoint-exhaustiveness gate (tools/imobif_snaplint.py), which
  /// reads the codec's .cpp files, sees the tick read.
  void time(sim::Time& t);
  template <class E>
  void enumeration(E& e, E last, const char* what) {
    const std::uint8_t raw = in_.u8();
    if (raw > static_cast<std::uint8_t>(last)) {
      throw std::runtime_error(std::string("snapshot: invalid ") + what +
                               " " + std::to_string(raw));
    }
    e = static_cast<E>(raw);
  }
  template <class T, class Each = ItemFn>
  void opt(std::optional<T>& v, Each each = {}) {
    v.reset();
    if (in_.boolean()) each(*this, v.emplace());
  }
  template <class T>
  void seq(std::vector<T>& v) {
    const std::uint64_t count = in_.u64();
    v.clear();
    v.reserve(static_cast<std::size_t>(std::min(count, kReserveCap)));
    for (std::uint64_t i = 0; i < count; ++i) item(*this, v.emplace_back());
  }
  template <class... Ts>
  void variant(std::variant<Ts...>& v, const char* what) {
    const std::uint8_t index = in_.u8();
    if (index >= sizeof...(Ts)) {
      throw std::runtime_error(std::string("snapshot: unknown ") + what +
                               " index " + std::to_string(index));
    }
    std::size_t i = 0;
    ((i++ == index ? void(v.template emplace<Ts>()) : void()), ...);
    std::visit([this](auto& alt) { item(*this, alt); }, v);
  }
  void begin_section(std::string_view name) { in_.begin_section(name); }
  void end_section() { in_.end_section(); }

  /// One value of type T, read with item().
  template <class T>
  T read() {
    T v{};
    item(*this, v);
    return v;
  }

 private:
  StateReader& in_;
};

template <class Ar>
void fields(Ar& ar, geom::Vec2& x) {
  ar.f64(x.x);
  ar.f64(x.y);
}

/// Both a snapshot and a RunResult carry the medium counters. The list is
/// defined in snapshot.cpp, which instantiates it for result_io.cpp's
/// Writer<StateWriter> and Reader.
template <class Ar>
void fields(Ar& ar, net::Medium::Counters& x);

}  // namespace imobif::snap

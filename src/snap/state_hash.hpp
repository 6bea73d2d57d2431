// StateHash: a 64-bit incremental digest over the snapshot encoding.
//
// StateHash is the TaggedEncoder of codec.hpp over an FNV-1a sink, the
// same encoder StateWriter runs over a byte string, so the field lists in
// snapshot.cpp feed either one through a snap::Writer: hashing a run is
// exactly "encode it and hash the bytes after the 8-byte header" without
// materializing the bytes. The tags (and section framing) are hashed too,
// so two different field sequences can never collide by concatenation.
//
// This is a divergence detector for replay bisection, not a cryptographic
// commitment; 64 bits is ample for comparing two runs event-by-event.
#pragma once

#include <cstdint>

#include "snap/codec.hpp"

namespace imobif::snap {

class StateHash : public TaggedEncoder<Fnv1aSink> {
 public:
  StateHash() : TaggedEncoder(Fnv1aSink::kOffsetBasis) {}

  std::uint64_t digest() const { return state_; }
};

}  // namespace imobif::snap

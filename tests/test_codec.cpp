/// \file test_codec.cpp
/// The frontier-exchange codecs (graph/codec) and their integration into
/// the BFS / MS-BFS exchanges: bit-exact round trips across the density
/// range, the raw-fallback size bounds, summary-guided encoding identity,
/// malformed-input rejection, and end-to-end equivalence — every codec
/// mode must produce the same BFS tree (and the same virtual time twice in
/// a row) as the codec-off path it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/hybrid.hpp"
#include "engine/msbfs.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/codec.hpp"
#include "graph/summary.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"

namespace numabfs::graph::codec {
namespace {

using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

ExperimentOptions shape(int nodes, int ppn) {
  ExperimentOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  return o;
}

std::vector<std::uint64_t> random_words(std::size_t n, double density,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution bit(density);
  std::vector<std::uint64_t> w(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (int b = 0; b < 64; ++b)
      if (bit(rng)) w[i] |= 1ull << b;
  return w;
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

TEST(Varint, RoundTripAndLength) {
  const std::uint64_t vals[] = {0,
                                1,
                                127,
                                128,
                                300,
                                16383,
                                16384,
                                1ull << 20,
                                (1ull << 32) - 1,
                                1ull << 32,
                                std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v : vals) {
    const std::size_t base = buf.size();
    put_varint(buf, v);
    EXPECT_EQ(buf.size() - base, varint_len(v)) << v;
  }
  std::size_t pos = 0;
  for (std::uint64_t v : vals) {
    std::uint64_t got = 0;
    pos = get_varint({buf.data(), buf.size()}, pos, got);
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, TruncatedInputThrows) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1ull << 40);
  buf.pop_back();
  std::uint64_t v = 0;
  EXPECT_THROW(get_varint({buf.data(), buf.size()}, 0, v),
               std::invalid_argument);
}

TEST(Varint, TenthByteOverflowThrows) {
  // 9 continuation bytes consume 63 payload bits; the 10th byte may carry
  // exactly one more. Any larger value would shift bits past 2^64 — the
  // unsigned shift silently discards them, so the decoder must reject the
  // stream instead of rounding the value.
  std::vector<std::uint8_t> buf(9, 0xFF);
  buf.push_back(0x01);  // ...valid: this is UINT64_MAX
  std::uint64_t v = 0;
  EXPECT_EQ(get_varint({buf.data(), buf.size()}, 0, v), 10u);
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  buf.back() = 0x02;  // one bit past 2^64
  EXPECT_THROW(get_varint({buf.data(), buf.size()}, 0, v),
               std::invalid_argument);
  buf.back() = 0x81;  // an 11th byte is never valid
  buf.push_back(0x00);
  EXPECT_THROW(get_varint({buf.data(), buf.size()}, 0, v),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Bitmap codecs: edge cases
// ---------------------------------------------------------------------------

TEST(BitmapCodec, EmptyBitmapEncodesTiny) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{1000}}) {
    const std::vector<std::uint64_t> zero(n, 0);
    std::vector<std::uint8_t> enc;
    const std::size_t nb = encode_dense({zero.data(), zero.size()}, enc);
    EXPECT_LE(nb, 4u) << n << " words of zeros should be a header + one run";
    std::vector<std::uint64_t> out(n, 0xDEADBEEFull);
    EXPECT_EQ(decode_bitmap({enc.data(), enc.size()}, {out.data(), out.size()}),
              nb);
    EXPECT_EQ(out, zero);
  }
}

TEST(BitmapCodec, FullBitmapBoundedByRawPlusHeader) {
  // Density 1.0 is the RLE worst case: no zero runs, every byte nonzero.
  // The embedded raw fallback must cap the encoding at raw + 1 mode byte.
  for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                              std::size_t{1000}}) {
    const std::vector<std::uint64_t> full(n, ~0ull);
    std::vector<std::uint8_t> enc;
    const std::size_t nb = encode_dense({full.data(), full.size()}, enc);
    EXPECT_LE(nb, n * 8 + 1);
    std::vector<std::uint64_t> out(n, 0);
    decode_bitmap({enc.data(), enc.size()}, {out.data(), out.size()});
    EXPECT_EQ(out, full);

    std::vector<std::uint8_t> senc;
    const std::size_t snb =
        encode_bitmap_sparse({full.data(), full.size()}, senc);
    EXPECT_LE(snb, n * 8 + 1);
    std::vector<std::uint64_t> sout(n, 0);
    decode_bitmap({senc.data(), senc.size()}, {sout.data(), sout.size()});
    EXPECT_EQ(sout, full);
  }
}

TEST(BitmapCodec, SingleWordBlock) {
  // A 1-word block (the 1-vertex-block degenerate partition) in all three
  // interesting states: empty, one bit, full.
  for (const std::uint64_t w : {0ull, 1ull << 17, ~0ull}) {
    const std::vector<std::uint64_t> in = {w};
    for (const bool sparse : {false, true}) {
      std::vector<std::uint8_t> enc;
      const std::size_t nb =
          sparse ? encode_bitmap_sparse({in.data(), 1}, enc)
                 : encode_dense({in.data(), 1}, enc);
      EXPECT_LE(nb, 9u);
      std::vector<std::uint64_t> out = {0x1234ull};
      decode_bitmap({enc.data(), enc.size()}, {out.data(), 1});
      EXPECT_EQ(out[0], w) << "sparse=" << sparse;
    }
  }
}

TEST(BitmapCodec, RoundTripFuzzAcrossDensities) {
  const double densities[] = {0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5};
  const std::size_t sizes[] = {1, 3, 7, 64, 1000};
  std::uint64_t seed = 20120924;
  for (const double d : densities) {
    for (const std::size_t n : sizes) {
      const auto in = random_words(n, d, seed++);
      for (const bool sparse : {false, true}) {
        std::vector<std::uint8_t> enc = {0xAB};  // nonempty: appends, not overwrites
        const std::size_t nb =
            sparse ? encode_bitmap_sparse({in.data(), in.size()}, enc)
                   : encode_dense({in.data(), in.size()}, enc);
        ASSERT_EQ(enc.size(), 1 + nb);
        ASSERT_LE(nb, n * 8 + 1) << "d=" << d << " n=" << n;
        std::vector<std::uint64_t> out(n, ~0ull);
        const std::size_t used = decode_bitmap(
            {enc.data() + 1, enc.size() - 1}, {out.data(), out.size()});
        EXPECT_EQ(used, nb);
        ASSERT_EQ(out, in) << "sparse=" << sparse << " d=" << d << " n=" << n;
      }
    }
  }
}

TEST(BitmapCodec, SparseBeatsRawAtLowDensity) {
  const auto in = random_words(1000, 0.001, 7);
  std::vector<std::uint8_t> enc;
  const std::size_t nb = encode_bitmap_sparse({in.data(), in.size()}, enc);
  EXPECT_LT(nb, 1000 * 8 / 10) << "0.1% density should compress >10x";
  std::vector<std::uint8_t> denc;
  const std::size_t dnb = encode_dense({in.data(), in.size()}, denc);
  EXPECT_LT(dnb, 1000 * 8 / 2);
}

TEST(BitmapCodec, GuidedEncodingIsIdentical) {
  // A summary guide only changes how the encoder *finds* zero words, never
  // the bytes it emits — with a correct summary the output is bit-identical.
  const std::uint64_t g = 256;
  const std::size_t n = 512;  // 32768 bits
  auto in = random_words(n, 0.002, 99);
  Bitmap src_bits(n * 64);
  for (std::size_t i = 0; i < n; ++i) src_bits.view().words()[i] = in[i];
  Summary summary(n * 64, g);
  SummaryView sv = summary.view();
  sv.rebuild_range(src_bits.view(), 0, n * 64);

  std::vector<std::uint8_t> plain, guided;
  const std::size_t a = encode_dense({in.data(), n}, plain);
  const std::size_t b = encode_dense({in.data(), n}, guided, &sv, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(plain, guided);

  // Offset chunk: the second half of the words sits at base bit n*32.
  std::vector<std::uint8_t> half_plain, half_guided;
  const std::size_t ha = encode_dense({in.data() + n / 2, n / 2}, half_plain);
  const std::size_t hb = encode_dense({in.data() + n / 2, n / 2}, half_guided,
                                      &sv, (n / 2) * 64);
  EXPECT_EQ(ha, hb);
  EXPECT_EQ(half_plain, half_guided);
}

TEST(BitmapCodec, MalformedInputThrows) {
  std::vector<std::uint64_t> out(4, 0);
  const std::vector<std::uint8_t> bad_mode = {0x7F};
  EXPECT_THROW(
      decode_bitmap({bad_mode.data(), bad_mode.size()}, {out.data(), 4}),
      std::invalid_argument);
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(decode_bitmap({empty.data(), 0}, {out.data(), 4}),
               std::invalid_argument);
  // Truncated raw mode: mode byte 0 promises 4 words but carries 3 bytes.
  const std::vector<std::uint8_t> short_raw = {0, 1, 2, 3};
  EXPECT_THROW(
      decode_bitmap({short_raw.data(), short_raw.size()}, {out.data(), 4}),
      std::invalid_argument);
}

TEST(BitmapCodec, PositionsDeltaOverflowThrows) {
  // kModePositions with a delta that wraps cur past 2^64: without the
  // overflow guard, 10 + (2^64 - 5) wraps to 5, sails under the range
  // check, and silently sets the wrong bit.
  std::vector<std::uint8_t> enc = {2};  // kModePositions
  put_varint(enc, 2);                   // two set bits
  put_varint(enc, 10);                  // first position
  put_varint(enc, ~std::uint64_t{4});   // delta 2^64 - 5: wraps to bit 5
  std::vector<std::uint64_t> out(4, 0);
  EXPECT_THROW(decode_bitmap({enc.data(), enc.size()}, {out.data(), 4}),
               std::invalid_argument);
}

TEST(BitmapCodec, EmptyLiteralRunThrows) {
  // A valid token stream never emits lrun == 0 (the zero run ended on a
  // nonzero word); crafted zrun=0/lrun=0 pairs would otherwise spin over
  // the input without filling any output words.
  std::vector<std::uint8_t> enc = {1};  // kModeTokens
  put_varint(enc, 0);                   // zrun 0
  put_varint(enc, 0);                   // lrun 0: corruption
  put_varint(enc, 0);
  put_varint(enc, 0);
  std::vector<std::uint64_t> out(4, 0);
  EXPECT_THROW(decode_bitmap({enc.data(), enc.size()}, {out.data(), 4}),
               std::invalid_argument);
}

TEST(BitmapCodec, EveryTruncationThrows) {
  // A canonical encoding is consumed exactly (RoundTripFuzz pins used ==
  // nb), so every strict prefix must fail to fill the output words and
  // throw — never return a half-filled bitmap as success.
  for (const double d : {0.002, 0.05, 0.5}) {
    const auto in = random_words(64, d, 31 + static_cast<std::uint64_t>(d * 1000));
    for (const bool sparse : {false, true}) {
      std::vector<std::uint8_t> enc;
      const std::size_t nb = sparse
                                 ? encode_bitmap_sparse({in.data(), 64}, enc)
                                 : encode_dense({in.data(), 64}, enc);
      for (std::size_t cut = 0; cut < nb; ++cut) {
        std::vector<std::uint64_t> out(64, 0);
        EXPECT_THROW(decode_bitmap({enc.data(), cut}, {out.data(), 64}),
                     std::invalid_argument)
            << "sparse=" << sparse << " d=" << d << " cut=" << cut;
      }
    }
  }
}

TEST(BitmapCodec, OverLongStreamReportsExactConsumption) {
  // Trailing garbage after a valid encoding must not be read: the decoder
  // reports exactly the bytes it consumed so the exchange layer can treat
  // `used != published size` as a hard framing error (corruption that the
  // checksummed-retransmit path has to see, not silently accept).
  const auto in = random_words(64, 0.01, 77);
  for (const bool sparse : {false, true}) {
    std::vector<std::uint8_t> enc;
    const std::size_t nb = sparse ? encode_bitmap_sparse({in.data(), 64}, enc)
                                  : encode_dense({in.data(), 64}, enc);
    enc.insert(enc.end(), {0xDE, 0xAD, 0xBE, 0xEF});
    std::vector<std::uint64_t> out(64, ~0ull);
    EXPECT_EQ(decode_bitmap({enc.data(), enc.size()}, {out.data(), 64}), nb);
    EXPECT_EQ(out, in);
  }
}

TEST(BitmapCodec, ByteFlipFuzzNeverOverreadsOrHangs) {
  // Flip every byte of valid encodings through a few XOR masks: the
  // decoder must either throw std::invalid_argument or consume at most the
  // buffer — corrupted streams must never crash, over-read, or spin.
  for (const double d : {0.002, 0.05, 0.5}) {
    const auto in = random_words(32, d, 123 + static_cast<std::uint64_t>(d * 1e4));
    for (const bool sparse : {false, true}) {
      std::vector<std::uint8_t> enc;
      const std::size_t nb = sparse ? encode_bitmap_sparse({in.data(), 32}, enc)
                                    : encode_dense({in.data(), 32}, enc);
      for (std::size_t i = 0; i < nb; ++i) {
        for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
          std::vector<std::uint8_t> bad(enc.begin(), enc.begin() + nb);
          bad[i] ^= mask;
          std::vector<std::uint64_t> out(32, 0);
          try {
            const std::size_t used =
                decode_bitmap({bad.data(), bad.size()}, {out.data(), 32});
            EXPECT_LE(used, bad.size());
          } catch (const std::invalid_argument&) {
            // rejection is the expected outcome for most flips
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Vertex-list codec
// ---------------------------------------------------------------------------

TEST(ListCodec, EmptyList) {
  std::vector<std::uint8_t> enc;
  const std::size_t nb = encode_list({}, enc);
  EXPECT_LE(nb, kListHeaderMax);
  std::vector<Vertex> out;
  EXPECT_EQ(decode_list({enc.data(), enc.size()}, out), nb);
  EXPECT_TRUE(out.empty());
}

TEST(ListCodec, SortedListCompressesAndRoundTrips) {
  std::vector<Vertex> list;
  for (Vertex v = 3; v < 40000; v += 7) list.push_back(v);
  std::vector<std::uint8_t> enc;
  const std::size_t nb = encode_list({list.data(), list.size()}, enc);
  EXPECT_LT(nb, list.size() * 2) << "gap-7 ascending list should be ~1 B/entry";
  std::vector<Vertex> out = {42};  // decode appends
  decode_list({enc.data(), enc.size()}, out);
  ASSERT_EQ(out.size(), list.size() + 1);
  EXPECT_EQ(out[0], 42u);
  EXPECT_TRUE(std::equal(list.begin(), list.end(), out.begin() + 1));
}

TEST(ListCodec, ArbitraryOrderPreserved) {
  // Discovered lists are not sorted; order carries tree structure and must
  // survive the wire exactly. Adversarial order maximizes delta widths.
  std::mt19937_64 rng(5);
  std::vector<Vertex> list(5000);
  for (auto& v : list) v = static_cast<Vertex>(rng() & 0x7FFFFFFF);
  std::vector<std::uint8_t> enc;
  const std::size_t nb = encode_list({list.data(), list.size()}, enc);
  EXPECT_LE(nb, list.size() * 4 + kListHeaderMax);
  std::vector<Vertex> out;
  decode_list({enc.data(), enc.size()}, out);
  EXPECT_EQ(out, list);
}

TEST(ListCodec, MalformedInputThrows) {
  std::vector<Vertex> out;
  std::vector<std::uint8_t> lying;  // claims 2^40 entries in 3 bytes
  lying.push_back(4);               // delta-list mode byte
  put_varint(lying, 1ull << 40);
  EXPECT_THROW(decode_list({lying.data(), lying.size()}, out),
               std::invalid_argument);
}

TEST(ListCodec, TruncationAndByteFlipFuzz) {
  std::vector<Vertex> list;
  for (Vertex v = 0; v < 500; ++v) list.push_back((v * 2654435761u) & 0xFFFFF);
  std::vector<std::uint8_t> enc;
  const std::size_t nb = encode_list({list.data(), list.size()}, enc);
  // Every strict prefix throws (the decoder cannot produce `count` values).
  for (std::size_t cut = 0; cut < nb; cut += 7) {
    std::vector<Vertex> out;
    EXPECT_THROW(decode_list({enc.data(), cut}, out), std::invalid_argument)
        << "cut=" << cut;
  }
  // Trailing garbage is not consumed: exact framing is reported back.
  std::vector<std::uint8_t> padded = enc;
  padded.insert(padded.end(), {0xAA, 0xBB});
  std::vector<Vertex> out;
  EXPECT_EQ(decode_list({padded.data(), padded.size()}, out), nb);
  EXPECT_EQ(out, list);
  // Byte flips either throw or stay inside the buffer; 32-bit range of
  // every decoded vertex is enforced even on corrupt streams.
  for (std::size_t i = 0; i < nb; i += 3) {
    std::vector<std::uint8_t> bad = enc;
    bad[i] ^= 0xFF;
    std::vector<Vertex> fuzz_out;
    try {
      EXPECT_LE(decode_list({bad.data(), bad.size()}, fuzz_out), bad.size());
    } catch (const std::invalid_argument&) {
    }
  }
}

// ---------------------------------------------------------------------------
// Analytic size estimates (the gate's inputs)
// ---------------------------------------------------------------------------

TEST(Estimates, TrackRealSizesDirectionally) {
  // The gate only needs the estimates to be ordinally sane: tiny for empty,
  // clamped at raw for dense, monotone in the set-bit count.
  EXPECT_LE(dense_estimate_bytes(1000, 0), 16u);
  EXPECT_LE(sparse_estimate_bytes(0, 64000), 16u);
  EXPECT_EQ(dense_estimate_bytes(1000, 32000), 1000 * 8 + 1);
  EXPECT_LE(sparse_estimate_bytes(100, 64000), 64000 / 8);
  EXPECT_LT(dense_estimate_bytes(1000, 64), dense_estimate_bytes(1000, 6400));
  EXPECT_LT(sparse_estimate_bytes(10, 64000), sparse_estimate_bytes(1000, 64000));
  // Both are smallest at popcount 0, which the gate's popcount-free pick
  // (GateResult::popcount_free) rests on.
  for (const std::uint64_t words : {1u, 4u, 64u, 1024u}) {
    const std::uint64_t bits = words * 64;
    const std::uint64_t step = std::max<std::uint64_t>(1, bits / 256);
    for (std::uint64_t pop = 0; pop <= bits; pop += step) {
      EXPECT_LE(dense_estimate_bytes(words, 0),
                dense_estimate_bytes(words, pop))
          << words << " words, pop " << pop;
      EXPECT_LE(sparse_estimate_bytes(0, bits),
                sparse_estimate_bytes(pop, bits))
          << words << " words, pop " << pop;
    }
  }
}

// ---------------------------------------------------------------------------
// BFS integration: every codec mode reproduces the codec-off tree
// ---------------------------------------------------------------------------

const GraphBundle& bundle10() {
  static const GraphBundle b = GraphBundle::make(10, 16, 42, 8);
  return b;
}

bfs::Config with_codec(bfs::Config c, bfs::CodecMode m, int chunks = 4) {
  c.codec = m;
  c.exchange_chunks = chunks;
  return c;
}

void expect_same_tree(Experiment& e, const bfs::Config& ref_cfg,
                      const bfs::Config& cfg) {
  const auto root = e.bundle().roots[0];
  const auto [ref_res, ref_parent] = e.run_validated(ref_cfg, root);
  const auto [res, parent] = e.run_validated(cfg, root);
  EXPECT_EQ(parent, ref_parent) << cfg.name();
  EXPECT_EQ(res.visited, ref_res.visited);
  EXPECT_EQ(res.traversed_directed_edges, ref_res.traversed_directed_edges);
  const auto v = graph::validate_bfs_tree(e.bundle().csr, root, parent);
  ASSERT_TRUE(v.ok) << cfg.name() << ": " << v.error;
}

TEST(CodecBfs, AllModesMatchOffAcrossShapes) {
  for (const auto& [nodes, ppn] : {std::pair{1, 4}, {2, 4}, {4, 2}}) {
    Experiment e(bundle10(), shape(nodes, ppn));
    const bfs::Config base = bfs::granularity(256);
    for (const bfs::CodecMode m :
         {bfs::CodecMode::gate, bfs::CodecMode::force_sparse,
          bfs::CodecMode::force_dense}) {
      expect_same_tree(e, base, with_codec(base, m));
    }
  }
}

TEST(CodecBfs, SingleRankClusterGate) {
  // np == 1: nothing crosses a wire; the gate must degrade to a no-op.
  Experiment e(bundle10(), shape(1, 1));
  expect_same_tree(e, bfs::original(),
                   with_codec(bfs::original(), bfs::CodecMode::gate));
}

TEST(CodecBfs, UnsharedVariantsMatchToo) {
  // The codec must compose with every sharing level, not just the ladder top.
  Experiment e(bundle10(), shape(2, 4));
  for (const bfs::Config& base :
       {bfs::original(), bfs::share_in_queue(), bfs::share_all()}) {
    expect_same_tree(e, base, with_codec(base, bfs::CodecMode::gate));
  }
}

TEST(CodecBfs, BitDeterministicIncludingTime) {
  Experiment e(bundle10(), shape(2, 4));
  const bfs::Config cfg = bfs::compressed();
  const auto root = e.bundle().roots[0];
  const auto [r1, p1] = e.run_validated(cfg, root);
  const auto [r2, p2] = e.run_validated(cfg, root);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(r1.time_ns, r2.time_ns);
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  for (std::size_t i = 0; i < r1.trace.size(); ++i) {
    EXPECT_EQ(r1.trace[i].exchange_codec, r2.trace[i].exchange_codec);
    EXPECT_EQ(r1.trace[i].wire_bytes, r2.trace[i].wire_bytes);
  }
}

TEST(CodecBfs, DeterministicUnderCrashPlan) {
  Experiment e(bundle10(), shape(2, 4));
  e.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("seed:42,crash:rank=3@level=2"),
      e.cluster().nranks(), e.cluster().ppn()));
  const bfs::Config cfg = bfs::compressed();
  const auto root = e.bundle().roots[0];
  const auto [r1, p1] = e.run_validated(cfg, root);
  const auto [r2, p2] = e.run_validated(cfg, root);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(r1.time_ns, r2.time_ns);
  EXPECT_GT(r1.recoveries, 0);
  const auto v = graph::validate_bfs_tree(e.bundle().csr, root, p1);
  ASSERT_TRUE(v.ok) << v.error;
  e.cluster().set_fault_injector(nullptr);
}

TEST(CodecBfs, CorrectUnderPayloadCorruption) {
  // Wire corruption under the codec: flipped bits in an encoded stream are
  // caught by the checksum (or by the decoder's hard framing errors) and
  // retransmitted — the traversal must land on exactly the clean tree, at
  // a deterministic (if higher) virtual time.
  Experiment e(bundle10(), shape(2, 4));
  const auto root = e.bundle().roots[0];
  const auto [clean_res, clean_parent] =
      e.run_validated(bfs::compressed(), root);

  e.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("seed:7,corrupt:prob=0.2"),
      e.cluster().nranks(), e.cluster().ppn()));
  const auto [r1, p1] = e.run_validated(bfs::compressed(), root);
  const auto [r2, p2] = e.run_validated(bfs::compressed(), root);
  e.cluster().set_fault_injector(nullptr);

  EXPECT_EQ(p1, clean_parent);
  EXPECT_EQ(r1.visited, clean_res.visited);
  EXPECT_EQ(p2, p1);
  EXPECT_EQ(r1.time_ns, r2.time_ns);
  const auto v = graph::validate_bfs_tree(e.bundle().csr, root, p1);
  ASSERT_TRUE(v.ok) << v.error;
}

TEST(CodecBfs, FullFrontierWireNeverExceedsRawPlusHeaders) {
  // bottom_up_only + force_dense drives the exchange through the densest
  // frontiers the traversal can produce; the fallback bound must hold on
  // the wire: each contribution costs at most its raw size + 1 mode byte.
  Experiment e(bundle10(), shape(2, 4));
  bfs::Config cfg = with_codec(bfs::granularity(256),
                               bfs::CodecMode::force_dense);
  cfg.direction = bfs::Direction::bottom_up_only;
  const auto root = e.bundle().roots[0];
  const auto [res, parent] = e.run_validated(cfg, root);
  const auto v = graph::validate_bfs_tree(e.bundle().csr, root, parent);
  ASSERT_TRUE(v.ok) << v.error;
  const std::uint64_t np = 8;
  for (const auto& t : res.trace) {
    if (t.exchange_codec < 0) continue;
    EXPECT_LE(t.wire_bytes, t.wire_raw_bytes + np * np)
        << "level " << t.level;
  }
}

TEST(CodecBfs, GateReducesMeasuredWireBytes) {
  Experiment e(bundle10(), shape(2, 4));
  const auto root = e.bundle().roots[0];
  const auto [res, parent] = e.run_validated(bfs::compressed(), root);
  std::uint64_t wire = 0, raw = 0;
  bool any_coded = false;
  for (const auto& t : res.trace) {
    wire += t.wire_bytes;
    raw += t.wire_raw_bytes;
    if (t.exchange_codec > 0) any_coded = true;
  }
  EXPECT_TRUE(any_coded) << "gate never picked a codec on an R-MAT run";
  EXPECT_LT(wire, raw);
}

// ---------------------------------------------------------------------------
// MS-BFS integration
// ---------------------------------------------------------------------------

TEST(CodecMsBfs, CodedWaveMatchesUncodedDistances) {
  const GraphBundle b = GraphBundle::make(9, 16, 7, 16);
  Experiment ex(b, shape(2, 2));
  std::vector<engine::WaveQuery> qs;
  for (int i = 0; i < 8; ++i) {
    engine::WaveQuery q;
    q.source = b.roots[static_cast<std::size_t>(i) % b.roots.size()];
    qs.push_back(q);
  }

  engine::WaveState off(ex.dist(), bfs::original(), 2, 2);
  const engine::WaveResult r_off = engine::run_wave(ex.cluster(), ex.dist(), off, qs);

  engine::WaveState on(ex.dist(),
                       with_codec(bfs::original(), bfs::CodecMode::gate), 2, 2);
  const engine::WaveResult r_on = engine::run_wave(ex.cluster(), ex.dist(), on, qs);
  const engine::WaveResult r_on2 = engine::run_wave(ex.cluster(), ex.dist(), on, qs);

  EXPECT_EQ(r_on.levels, r_off.levels);
  EXPECT_EQ(r_on.wave_ns, r_on2.wave_ns) << "coded wave must be deterministic";
  for (int l = 0; l < static_cast<int>(qs.size()); ++l) {
    const auto d_off = engine::gather_lane_distances(ex.dist(), off, l);
    const auto d_on = engine::gather_lane_distances(ex.dist(), on, l);
    ASSERT_EQ(d_on, d_off) << "lane " << l;
  }
}

}  // namespace
}  // namespace numabfs::graph::codec

// The Gilbert-Elliott link-fault layer: spec parsing at the CLI boundary,
// per-link stream independence and determinism (including the pinned golden
// drop sequences every lossy record ultimately derives from), the inert
// "zero" preset's can't-perturb guarantee, and the network ARQ contract
// (retransmit until delivered or the retry budget runs dry).

#include "sim/link_faults.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "sim/network.hpp"
#include "util/error.hpp"

namespace nab::sim {
namespace {

TEST(LinkFaultSpec, PresetsParse) {
  for (const std::string& name : loss_preset_names()) {
    const link_fault_params p = parse_loss_spec(name);
    EXPECT_GE(p.p_loss_bad, p.p_loss_good) << name;
    EXPECT_EQ(p.lossless(), name == "zero") << name;
  }
  const link_fault_params bursty = parse_loss_spec("bursty");
  EXPECT_DOUBLE_EQ(bursty.p_loss_good, 0.01);
  EXPECT_DOUBLE_EQ(bursty.p_loss_bad, 0.5);
  EXPECT_DOUBLE_EQ(bursty.p_good_to_bad, 0.05);
  EXPECT_DOUBLE_EQ(bursty.p_bad_to_good, 0.25);
  EXPECT_DOUBLE_EQ(bursty.jitter, 0.0);
}

TEST(LinkFaultSpec, ZeroIsInertHeavyIsNot) {
  EXPECT_TRUE(parse_loss_spec("zero").inert());
  EXPECT_TRUE(parse_loss_spec("zero").lossless());
  // heavy is the only preset with jitter: lossy AND time-dilating.
  const link_fault_params heavy = parse_loss_spec("heavy");
  EXPECT_FALSE(heavy.lossless());
  EXPECT_GT(heavy.jitter, 0.0);
  // A custom lossless tuple with no jitter path is still inert.
  EXPECT_TRUE(parse_loss_spec("0,0,0.5,0.5").inert());
}

TEST(LinkFaultSpec, CustomTupleParses) {
  const link_fault_params p = parse_loss_spec("0.125,0.75,0.0625,1");
  EXPECT_DOUBLE_EQ(p.p_loss_good, 0.125);
  EXPECT_DOUBLE_EQ(p.p_loss_bad, 0.75);
  EXPECT_DOUBLE_EQ(p.p_good_to_bad, 0.0625);
  EXPECT_DOUBLE_EQ(p.p_bad_to_good, 1.0);
  EXPECT_DOUBLE_EQ(p.jitter, 0.0);  // custom tuples never dilate time
}

TEST(LinkFaultSpec, MalformedSpecsThrow) {
  // "none" means *no model attached*; callers handle it before parsing, so
  // the parser must reject it rather than return some inert model.
  EXPECT_THROW(parse_loss_spec("none"), nab::error);
  EXPECT_THROW(parse_loss_spec(""), nab::error);
  EXPECT_THROW(parse_loss_spec("medium"), nab::error);
  EXPECT_THROW(parse_loss_spec("ZERO"), nab::error);
  EXPECT_THROW(parse_loss_spec("0.1,0.2,0.3"), nab::error);        // too few
  EXPECT_THROW(parse_loss_spec("0.1,0.2,0.3,0.4,0.5"), nab::error);  // too many
  EXPECT_THROW(parse_loss_spec("0.1,0.2,0.3,0.4x"), nab::error);   // junk tail
  EXPECT_THROW(parse_loss_spec("0.1,0.2,0.3,1.5"), nab::error);    // p > 1
  EXPECT_THROW(parse_loss_spec("0.1,0.2,0.3,-0.1"), nab::error);   // p < 0
  EXPECT_THROW(parse_loss_spec("0.1,,0.3,0.4"), nab::error);       // empty field
  EXPECT_THROW(parse_loss_spec("a,b,c,d"), nab::error);
}

TEST(LinkFaultModel, GoldenDropSequencesArePinned) {
  // If these move, every recorded lossy BENCH_runtime.json becomes
  // incomparable with new runs — same contract as the runtime's pinned
  // splitmix64 values. Bump only with a conscious format break.
  link_fault_model m(parse_loss_spec("bursty"), 0x1234);
  std::uint64_t bits01 = 0, bits23 = 0;
  for (int i = 0; i < 64; ++i) {
    if (m.erase(0, 1, 4)) bits01 |= 1ULL << i;
    if (m.erase(2, 3, 4)) bits23 |= 1ULL << i;
  }
  EXPECT_EQ(bits01, 0x005a000010100000ULL);
  EXPECT_EQ(bits23, 0x0180000000000090ULL);
}

TEST(LinkFaultModel, ZeroPresetNeverDropsAndNeverDilates) {
  link_fault_model m(parse_loss_spec("zero"), 99);
  for (int i = 0; i < 512; ++i) {
    EXPECT_FALSE(m.erase(0, 1, 3));
    EXPECT_FALSE(m.in_bad_state(0, 1, 3));
  }
  EXPECT_DOUBLE_EQ(m.time_dilation(0, 1, 3), 1.0);
  EXPECT_DOUBLE_EQ(m.time_dilation(2, 1, 3), 1.0);
}

TEST(LinkFaultModel, LinkStreamsAreIndependentOfInterleaving) {
  // A link's erasure history is a pure function of (seed, link index,
  // transmissions carried so far) — traffic on other links must not shift
  // it. This is what makes lossy sweeps bit-identical for any --jobs count.
  link_fault_model alone(parse_loss_spec("bursty"), 7);
  link_fault_model interleaved(parse_loss_spec("bursty"), 7);
  std::vector<bool> a, b;
  for (int i = 0; i < 128; ++i) a.push_back(alone.erase(1, 2, 4));
  for (int i = 0; i < 128; ++i) {
    interleaved.erase(0, 1, 4);
    b.push_back(interleaved.erase(1, 2, 4));
    interleaved.erase(3, 2, 4);
  }
  EXPECT_EQ(a, b);
}

TEST(LinkFaultModel, AdjacentLinksAreDecorrelated) {
  // Streams of adjacent link indices must not be shifted copies of each
  // other (the seed mix exists for exactly this).
  link_fault_model m(parse_loss_spec("heavy"), 3);
  std::vector<bool> a, b;
  for (int i = 0; i < 256; ++i) {
    a.push_back(m.erase(0, 1, 4));
    b.push_back(m.erase(0, 2, 4));
  }
  EXPECT_NE(a, b);
}

TEST(LinkFaultModel, BurstsRaiseTheLossRate) {
  // Sanity on the chain semantics, not exact rates: the heavy preset must
  // actually visit the bad state, and the bad state must drop more.
  link_fault_model m(parse_loss_spec("heavy"), 11);
  int drops_good = 0, drops_bad = 0, samples_good = 0, samples_bad = 0;
  for (int i = 0; i < 20000; ++i) {
    const bool was_bad = m.in_bad_state(0, 1, 2);
    const bool lost = m.erase(0, 1, 2);
    (was_bad ? samples_bad : samples_good) += 1;
    if (lost) (was_bad ? drops_bad : drops_good) += 1;
  }
  ASSERT_GT(samples_bad, 100);  // the chain spends real time in bursts
  ASSERT_GT(samples_good, 100);
  const double rate_good = static_cast<double>(drops_good) / samples_good;
  const double rate_bad = static_cast<double>(drops_bad) / samples_bad;
  EXPECT_NEAR(rate_good, 0.05, 0.02);
  EXPECT_NEAR(rate_bad, 0.7, 0.05);
}

TEST(LinkFaultModel, TimeDilationIsFixedPerLinkWithinAmplitude) {
  const link_fault_params heavy = parse_loss_spec("heavy");
  link_fault_model m(heavy, 0x1234);
  const double d01 = m.time_dilation(0, 1, 4);
  const double d10 = m.time_dilation(1, 0, 4);
  EXPECT_GE(d01, 1.0);
  EXPECT_LE(d01, 1.0 + heavy.jitter);
  EXPECT_NE(d01, d10);  // direction-asymmetric: separate link indices
  // Pinned draws (same format contract as the drop sequences) — and reading
  // the dilation is stateless, so it never perturbs the erasure stream.
  EXPECT_DOUBLE_EQ(d01, 1.2492190456039571);
  EXPECT_DOUBLE_EQ(d10, 1.0166834145797929);
  EXPECT_DOUBLE_EQ(m.time_dilation(0, 1, 4), d01);
  link_fault_model untouched(parse_loss_spec("heavy"), 0x1234);
  link_fault_model probed(parse_loss_spec("heavy"), 0x1234);
  for (int i = 0; i < 16; ++i) probed.time_dilation(0, 1, 4);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(untouched.erase(0, 1, 4), probed.erase(0, 1, 4));
}

TEST(LinkFaultModel, EraseCountsDropsAndBurstOnsets) {
  obs::collector col;
  obs::scoped_collector scope(&col);
  link_fault_model m(parse_loss_spec("heavy"), 5);
  std::uint64_t drops = 0;
  for (int i = 0; i < 2000; ++i)
    if (m.erase(0, 1, 2)) ++drops;
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(col.value(obs::counter::link_drops), drops);
  EXPECT_GT(col.value(obs::counter::link_burst_spans), 0u);
}

TEST(LinkFaultAmbient, ScopesNestAndRestore) {
  ASSERT_EQ(ambient_link_faults(), nullptr);
  link_fault_model outer(parse_loss_spec("zero"), 1);
  link_fault_model inner(parse_loss_spec("bursty"), 2);
  {
    scoped_link_faults a(&outer);
    EXPECT_EQ(ambient_link_faults(), &outer);
    {
      scoped_link_faults b(&inner);
      EXPECT_EQ(ambient_link_faults(), &inner);
      {
        scoped_link_faults c(nullptr);  // suspension
        EXPECT_EQ(ambient_link_faults(), nullptr);
      }
      EXPECT_EQ(ambient_link_faults(), &inner);
    }
    EXPECT_EQ(ambient_link_faults(), &outer);
  }
  EXPECT_EQ(ambient_link_faults(), nullptr);
}

TEST(LossyNetwork, NetworksAttachTheAmbientModel) {
  network clean(graph::complete(3));
  EXPECT_EQ(clean.link_faults(), nullptr);
  EXPECT_FALSE(clean.lossy());
  link_fault_model zero(parse_loss_spec("zero"), 1);
  link_fault_model bursty(parse_loss_spec("bursty"), 1);
  {
    scoped_link_faults scope(&zero);
    network net(graph::complete(3));
    EXPECT_EQ(net.link_faults(), &zero);
    EXPECT_FALSE(net.lossy());  // attached but lossless: not "lossy"
  }
  {
    scoped_link_faults scope(&bursty);
    network net(graph::complete(3));
    EXPECT_TRUE(net.lossy());
  }
}

TEST(LossyNetwork, LossyTransmitRetransmitsUntilDelivered) {
  obs::collector col;
  obs::scoped_collector cscope(&col);
  // Always-bad chain at p_loss_bad = 0.5: delivery needs retries sometimes.
  link_fault_model m(parse_loss_spec("0.5,0.5,0,1"), 9);
  scoped_link_faults scope(&m);
  network net(graph::complete(2, 1));
  trace t;
  net.attach_trace(&t);
  int delivered = 0;
  for (int i = 0; i < 200; ++i)
    if (net.lossy_transmit(0, 1, 4)) ++delivered;
  EXPECT_EQ(delivered, 200);  // budget 12 vs p=0.5: exhaustion is 2^-13
  const std::uint64_t retx = col.value(obs::counter::link_retransmits);
  EXPECT_GT(retx, 0u);
  EXPECT_EQ(col.value(obs::counter::link_drops), retx);  // every drop retried
  EXPECT_EQ(col.value(obs::counter::link_retry_exhaustions), 0u);
  // Wire accounting: 200 initial charges + one 4-bit recharge and one 1-bit
  // reverse nack per retransmission.
  net.end_step();
  EXPECT_EQ(t.link_total(0, 1), 200u * 4 + retx * 4);
  EXPECT_EQ(t.link_total(1, 0), retx * 1);
  EXPECT_EQ(net.total_bits(), t.total_bits());
  // The headroom gauge saw the worst retry chain.
  const std::int64_t headroom = col.gauge_value(obs::gauge::retry_headroom);
  EXPECT_GE(headroom, 0);
  EXPECT_LT(headroom, 12);
}

TEST(LossyNetwork, LossyTransmitExhaustsBudgetOnDeadLink) {
  obs::collector col;
  obs::scoped_collector cscope(&col);
  link_fault_model m(parse_loss_spec("1,1,0,1"), 9);
  scoped_link_faults scope(&m);
  network net(graph::complete(2, 1));
  trace t;
  net.attach_trace(&t);
  EXPECT_FALSE(net.lossy_transmit(0, 1, 8));
  EXPECT_EQ(col.value(obs::counter::link_retransmits), 12u);  // full budget
  EXPECT_EQ(col.value(obs::counter::link_retry_exhaustions), 1u);
  EXPECT_EQ(col.gauge_value(obs::gauge::retry_headroom), 0);
  // Erased but charged: the link carried every copy although none landed.
  EXPECT_DOUBLE_EQ(net.end_step(), 8.0 * 13);  // cap 1
  EXPECT_EQ(t.link_total(0, 1), 8u * 13);  // initial + 12 retransmissions
  EXPECT_EQ(t.link_total(1, 0), 12u);      // one nack bit per retry
}

TEST(LossyNetwork, LossyTransmitWithoutModelIsOneCleanCharge) {
  obs::collector col;
  obs::scoped_collector cscope(&col);
  network net(graph::complete(2, 1));
  trace t;
  net.attach_trace(&t);
  EXPECT_TRUE(net.lossy_transmit(0, 1, 8));
  net.end_step();
  EXPECT_EQ(t.link_total(0, 1), 8u);
  EXPECT_EQ(t.link_total(1, 0), 0u);
  EXPECT_EQ(col.value(obs::counter::link_retransmits), 0u);
  EXPECT_EQ(col.gauge_value(obs::gauge::retry_headroom), obs::gauge_unset);
}

TEST(LossyNetwork, JitterDilatesStepDuration) {
  // Hand-build a jittered lossless model: jitter only, no drops.
  link_fault_params p;
  p.jitter = 0.25;
  link_fault_model jittered(p, 0x1234);
  scoped_link_faults scope(&jittered);
  network net(graph::complete(4, 1));
  EXPECT_TRUE(net.lossy_transmit(0, 1, 8));  // lossless: the copy lands
  // 8 bits on cap 1 dilated by the pinned link 0->1 factor.
  EXPECT_DOUBLE_EQ(net.end_step(), 8.0 * 1.2492190456039571);
}

}  // namespace
}  // namespace nab::sim

/**
 * @file
 * Snapshot/restore tests.
 *
 * The load-bearing property is restore invisibility: running a
 * simulation straight through must be bit-identical to running part
 * way, snapshotting, restoring the snapshot into a freshly built
 * simulator and running the rest — across {Clock, Event} engines,
 * {serial, parallel} execution and {Chip, Board} targets, including
 * board runs with packets parked in flight on constrained links at
 * the snapshot point.  Thread count is explicitly NOT part of the
 * snapshot contract, so a serial snapshot must restore into a
 * parallel simulator (and vice versa) with the same bit-identical
 * continuation.
 *
 * The rejection paths matter just as much: a snapshot from a
 * different format/version/target/engine/geometry must be refused
 * with a diagnostic, never half-applied.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench/workload.hh"
#include "runtime/simulator.hh"
#include "runtime/snapshot.hh"
#include "util/json.hh"
#include "util/saturate.hh"

namespace nscs {
namespace {

constexpr uint64_t kTicks = 40;      //!< full run length
constexpr uint64_t kSplit = 17;      //!< snapshot point (off-cycle)

/**
 * The cortical workload with every third neuron re-aimed at an
 * output line (as in test_board.cc) so runs produce a comparable
 * OutputSpike stream.
 */
bench::CorticalWorkload
tappedWorkload(uint32_t grid_w, uint32_t grid_h, uint64_t seed)
{
    bench::CorticalParams wp;
    wp.gridW = grid_w;
    wp.gridH = grid_h;
    wp.density = 32;
    wp.ratePerTick = 0.05;
    wp.seed = seed;
    bench::CorticalWorkload w = bench::makeCortical(wp);
    const uint32_t neurons = CoreGeometry{}.numNeurons;
    for (uint32_t c = 0; c < w.cores.size(); ++c) {
        for (uint32_t n = 0; n < neurons; n += 3) {
            NeuronDest &d = w.cores[c].dests[n];
            d = NeuronDest{};
            d.kind = NeuronDest::Kind::Output;
            d.line = c * neurons + n;
        }
    }
    return w;
}

std::unique_ptr<Simulator>
chipSim(const bench::CorticalWorkload &w, EngineKind engine,
        uint32_t threads)
{
    return bench::makeCorticalSim(w, engine, NocModel::Functional,
                                  threads);
}

/** Board sim with a constrained link so packets park in flight. */
std::unique_ptr<Simulator>
boardSim(const bench::CorticalWorkload &w, EngineKind engine,
         uint32_t threads)
{
    LinkParams link;
    link.packetsPerTick = 6;  // forces budget stalls into pending_
    link.extraDelay = 2;      // keeps packets in transit across ticks
    return bench::makeCorticalBoardSim(w, engine, 2, 2, threads, link);
}

/**
 * Restore invisibility for one (maker, engine, threads) cell:
 * straight-through reference vs snapshot-at-kSplit restored into a
 * fresh simulator, raw vector equality (same framing, so the
 * determinism contract promises bit-identical streams).
 */
template <typename MakeSim>
void
expectRestoreInvisible(const bench::CorticalWorkload &w,
                       MakeSim make, EngineKind engine,
                       uint32_t threads)
{
    auto ref = make(w, engine, threads);
    ref->run(kTicks);

    auto subject = make(w, engine, threads);
    subject->run(kSplit);
    JsonValue snap = subject->snapshot();

    // Snapshotting is non-destructive: the donor continues
    // bit-identically.
    subject->run(kTicks - kSplit);
    EXPECT_EQ(subject->recorder().spikes(), ref->recorder().spikes());

    auto restored = make(w, engine, threads);
    std::string err;
    ASSERT_TRUE(restored->restore(snap, &err)) << err;
    EXPECT_EQ(restored->now(), kSplit);
    restored->run(kTicks - kSplit);
    EXPECT_EQ(restored->recorder().spikes(), ref->recorder().spikes());
}

TEST(SnapshotRoundTrip, ChipMatrix)
{
    bench::CorticalWorkload w = tappedWorkload(4, 4, 7);
    for (EngineKind engine : {EngineKind::Clock, EngineKind::Event}) {
        for (uint32_t threads : {0u, 3u}) {
            SCOPED_TRACE(testing::Message()
                         << "engine=" << static_cast<int>(engine)
                         << " threads=" << threads);
            expectRestoreInvisible(w, chipSim, engine, threads);
        }
    }
}

TEST(SnapshotRoundTrip, BoardMatrixWithInFlightPackets)
{
    bench::CorticalWorkload w = tappedWorkload(4, 4, 11);
    for (EngineKind engine : {EngineKind::Clock, EngineKind::Event}) {
        for (uint32_t threads : {0u, 2u}) {
            SCOPED_TRACE(testing::Message()
                         << "engine=" << static_cast<int>(engine)
                         << " threads=" << threads);
            expectRestoreInvisible(w, boardSim, engine, threads);
        }
    }
}

// Thread count is not part of the snapshot contract: a serial
// snapshot restores into a parallel simulator (and back) with a
// bit-identical continuation.
TEST(SnapshotRoundTrip, CrossThreadCountRestore)
{
    bench::CorticalWorkload w = tappedWorkload(4, 4, 13);
    auto ref = chipSim(w, EngineKind::Event, 0);
    ref->run(kTicks);

    auto donor = chipSim(w, EngineKind::Event, 0);
    donor->run(kSplit);
    JsonValue snap = donor->snapshot();

    auto wide = chipSim(w, EngineKind::Event, 3);
    std::string err;
    ASSERT_TRUE(wide->restore(snap, &err)) << err;
    wide->run(kTicks - kSplit);
    EXPECT_EQ(wide->recorder().spikes(), ref->recorder().spikes());

    // And back: snapshot the parallel sim, restore into serial.
    auto donor2 = chipSim(w, EngineKind::Event, 3);
    donor2->run(kSplit);
    JsonValue snap2 = donor2->snapshot();
    auto narrow = chipSim(w, EngineKind::Event, 0);
    ASSERT_TRUE(narrow->restore(snap2, &err)) << err;
    narrow->run(kTicks - kSplit);
    EXPECT_EQ(narrow->recorder().spikes(), ref->recorder().spikes());
}

TEST(SnapshotRoundTrip, CountersAndRecorderSurvive)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 3);
    auto donor = chipSim(w, EngineKind::Clock, 0);
    donor->run(kSplit);
    JsonValue snap = donor->snapshot();

    auto restored = chipSim(w, EngineKind::Clock, 0);
    std::string err;
    ASSERT_TRUE(restored->restore(snap, &err)) << err;
    EXPECT_EQ(restored->recorder().spikes(),
              donor->recorder().spikes());
    EXPECT_EQ(restored->chip().counters().ticks,
              donor->chip().counters().ticks);
    EXPECT_EQ(restored->chip().counters().spikesRouted,
              donor->chip().counters().spikesRouted);
    EXPECT_EQ(restored->chip().counters().spikesOut,
              donor->chip().counters().spikesOut);
    EXPECT_EQ(restored->chip().counters().hops,
              donor->chip().counters().hops);
}

TEST(SnapshotRoundTrip, FileRoundTrip)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto ref = chipSim(w, EngineKind::Event, 0);
    ref->run(kTicks);

    auto donor = chipSim(w, EngineKind::Event, 0);
    donor->run(kSplit);
    const std::string path = testing::TempDir() + "nscs_snapshot.json";
    std::string err;
    ASSERT_TRUE(donor->saveStateFile(path, &err)) << err;

    auto restored = chipSim(w, EngineKind::Event, 0);
    ASSERT_TRUE(restored->restoreStateFile(path, &err)) << err;
    restored->run(kTicks - kSplit);
    EXPECT_EQ(restored->recorder().spikes(), ref->recorder().spikes());
}

TEST(SnapshotRejects, MissingFile)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto sim = chipSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(sim->restoreStateFile(
        testing::TempDir() + "no_such_snapshot.json", &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, VersionMismatch)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto sim = chipSim(w, EngineKind::Event, 0);
    sim->run(5);
    JsonValue snap = sim->snapshot();
    snap.set("version", JsonValue::integer(kSnapshotVersion + 1));
    auto fresh = chipSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(fresh->restore(snap, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(SnapshotRejects, FormatMismatch)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto sim = chipSim(w, EngineKind::Event, 0);
    JsonValue snap = sim->snapshot();
    snap.set("format", JsonValue::string("not-a-snapshot"));
    std::string err;
    EXPECT_FALSE(sim->restore(snap, &err));
    EXPECT_NE(err.find("format"), std::string::npos) << err;
}

TEST(SnapshotRejects, TargetMismatch)
{
    bench::CorticalWorkload w = tappedWorkload(4, 4, 5);
    auto chip = chipSim(w, EngineKind::Event, 0);
    chip->run(5);
    JsonValue snap = chip->snapshot();
    auto board = boardSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(board->restore(snap, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, EngineMismatch)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto clock = chipSim(w, EngineKind::Clock, 0);
    clock->run(5);
    JsonValue snap = clock->snapshot();
    auto event = chipSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(event->restore(snap, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, GeometryMismatch)
{
    bench::CorticalWorkload big = tappedWorkload(4, 4, 5);
    auto donor = chipSim(big, EngineKind::Event, 0);
    donor->run(5);
    JsonValue snap = donor->snapshot();
    bench::CorticalWorkload small = tappedWorkload(2, 2, 5);
    auto sim = chipSim(small, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(sim->restore(snap, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, GarbageDocument)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto sim = chipSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(sim->restore(JsonValue::integer(42), &err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(sim->restore(JsonValue::object(), &err));
    EXPECT_FALSE(err.empty());
}

/** @p arr with element @p i replaced by @p v (JsonValue has no
 *  mutable element access). */
JsonValue
withElement(const JsonValue &arr, size_t i, JsonValue v)
{
    JsonValue out = JsonValue::array();
    for (size_t k = 0; k < arr.size(); ++k)
        out.append(k == i ? std::move(v) : arr.at(k));
    return out;
}

/** @p snap with core 0, lane 0, neuron 0's potential set to @p v. */
JsonValue
withPotential(const JsonValue &snap, int64_t v)
{
    const JsonValue &device = snap.at("device");
    const JsonValue &core = device.at("cores").at(0);
    const JsonValue &lane = core.at("lanes").at(0);
    JsonValue new_lane = lane;
    new_lane.set("v", withElement(lane.at("v"), 0, JsonValue::integer(v)));
    JsonValue new_core = core;
    new_core.set("lanes",
                 withElement(core.at("lanes"), 0, std::move(new_lane)));
    JsonValue new_device = device;
    new_device.set("cores", withElement(device.at("cores"), 0,
                                        std::move(new_core)));
    JsonValue out = snap;
    out.set("device", std::move(new_device));
    return out;
}

TEST(SnapshotRejects, PotentialOutsideRails)
{
    // A potential outside the neuron's potentialBits rails — or
    // outside int32 altogether — must be refused, not truncated or
    // accepted: the batched integrate's excursion guard assumes
    // every potential starts inside its rails.
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto sim = chipSim(w, EngineKind::Event, 0);
    sim->run(5);
    const JsonValue snap = sim->snapshot();
    const NeuronParams &p = w.cores[0].neurons[0];
    const int64_t hi = satMax(p.potentialBits);
    const int64_t lo = satMin(p.potentialBits);

    std::string err;
    auto fresh = chipSim(w, EngineKind::Event, 0);
    EXPECT_TRUE(fresh->restore(withPotential(snap, hi), &err)) << err;
    fresh = chipSim(w, EngineKind::Event, 0);
    EXPECT_TRUE(fresh->restore(withPotential(snap, lo), &err)) << err;
    for (int64_t bad : {int64_t{1} << 40, hi + 1, lo - 1}) {
        fresh = chipSim(w, EngineKind::Event, 0);
        err.clear();
        EXPECT_FALSE(fresh->restore(withPotential(snap, bad), &err))
            << "potential " << bad;
        EXPECT_FALSE(err.empty());
    }
}

} // anonymous namespace
} // namespace nscs

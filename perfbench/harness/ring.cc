/**
 * @file
 * Workload board-ring-ckpt: scale-out with fault tolerance.
 *
 * The 32-population pacemaker ring of bench_core part 3 on a 4x4
 * board of 2-core chips with a 64-packet/tick link budget.  Each
 * population drives the next one-to-one.  The odd populations are
 * pacemakers that fire every tick on their leak; the even ones fire
 * on every 16th spike delivered to them, so their spike times depend
 * on when the fabric delivers.  Population 0 drives the output lines
 * in place of its ring edge.
 *
 * Set-up is the whole fast-path tool flow: compile with the
 * compiler's traffic estimate, run a traced profile, recompile with
 * profile-guided placement, and build the Simulator with
 * congestion-aware routes and 16-spike coalescing.
 *
 * The run is a sequence of episodes from reset.  Each episode
 * checkpoints every 10 ticks and meets 8 seeded transient SEU flips
 * in output neurons; each flip raises an alarm that rolls the
 * run back to its checkpoint and replays.  Each episode's output
 * stream and final neuron state are checked against the same model
 * run with no faults, no checkpoints and the plain fabric: unlimited
 * link budget, XY routes, one spike per packet.
 */

#include <algorithm>
#include <memory>

#include "common.hh"
#include "prog/compiler.hh"

namespace pb {

namespace {

using nscs::JsonValue;

constexpr uint32_t kBoardW = 4, kBoardH = 4;
constexpr uint32_t kGridW = 8, kGridH = 4;
constexpr uint32_t kPops = 32;
constexpr uint64_t kTraceTicks = 200;
constexpr uint32_t kCoalesce = 16;
constexpr uint64_t kCheckpointEvery = 10;
constexpr uint64_t kEpisodeTicks = 400;
constexpr uint32_t kFlips = 8;
constexpr int kBuilds = 3;  //!< set-up samples before timing
constexpr size_t kSetupEvery = 4;    //!< episodes between set-up samples
constexpr uint64_t kDropFrom = 100, kDropUntil = 140;  //!< self-test

nscs::CompiledModel
compileRing(std::shared_ptr<const nscs::TrafficProfile> profile)
{
    nscs::Network net;
    // An odd population resets linearly, so its potential counts the
    // spikes delivered to it; an even one integrates only deliveries.
    nscs::NeuronParams pace, relay;
    pace.leak = 1;
    pace.threshold = 1;
    pace.resetMode = nscs::ResetMode::Linear;
    relay.leak = 0;
    relay.threshold = 16;
    relay.resetMode = nscs::ResetMode::Store;
    std::vector<nscs::PopId> pops;
    for (uint32_t i = 0; i < kPops; ++i)
        pops.push_back(net.addPopulation("ring" + std::to_string(i), 256,
                                         i % 2 == 0 ? relay : pace));
    // Population 0 drives the output lines instead of population 1; a
    // second destination would need splitter cores the grid lacks.
    for (uint32_t i = 1; i < kPops; ++i)
        net.connectOneToOne(pops[i], pops[(i + 1) % kPops], 0, 1);
    for (uint32_t n = 0; n < 256; ++n)
        net.markOutput({pops[0], n});

    nscs::CompileOptions opt;
    opt.gridWidth = kGridW;
    opt.gridHeight = kGridH;
    opt.boardWidth = kBoardW;
    opt.boardHeight = kBoardH;
    opt.placement = nscs::PlacementPolicy::Anneal;
    opt.trafficProfile = std::move(profile);
    return nscs::compile(net, opt);
}

nscs::BoardParams
boardParams(const nscs::CompiledModel &model)
{
    nscs::BoardParams bp;
    bp.width = kBoardW;
    bp.height = kBoardH;
    bp.chip.width = model.gridWidth / kBoardW;
    bp.chip.height = model.gridHeight / kBoardH;
    bp.chip.coreGeom = model.geom;
    bp.chip.engine = nscs::EngineKind::Event;
    bp.link.packetsPerTick = 64;
    bp.link.queueCapacity = 512;
    return bp;
}

/** The fast-path deployment: model, profile and board parameters. */
struct Deployment
{
    nscs::CompiledModel model;
    std::shared_ptr<const nscs::TrafficProfile> profile;
    double placementCost = 0.0;
};

/** Compile, trace, recompile: the set-up tool flow. */
Deployment
deploy(Tracer &tr)
{
    nscs::CompiledModel base;
    {
        auto s = tr.span("prog.compile_estimate");
        base = compileRing(nullptr);
    }
    auto profile = std::make_shared<nscs::TrafficProfile>();
    {
        auto s = tr.span("prog.trace");
        nscs::BoardParams bp = boardParams(base);
        bp.traceTraffic = true;
        nscs::Simulator sim(bp, base.cores);
        sim.run(kTraceTicks);
        *profile = sim.board().trafficProfile();
    }
    Deployment d;
    {
        auto s = tr.span("prog.compile");
        d.model = compileRing(profile);
    }
    d.profile = profile;
    d.placementCost = d.model.stats.placementCost;
    return d;
}

/** Board parameters of the fast path, with @p plan's faults. */
nscs::BoardParams
fastParams(const Deployment &d,
           std::shared_ptr<const nscs::FaultPlan> plan)
{
    nscs::BoardParams bp = boardParams(d.model);
    bp.link.coalesce = kCoalesce;
    bp.trafficProfile = d.profile;
    bp.faultPlan = std::move(plan);
    return bp;
}

/** The seeded SEU plan: flips in cores that drive output lines. */
nscs::FaultPlan
faultPlan(const nscs::CompiledModel &model, uint64_t seed)
{
    std::vector<std::pair<uint32_t, uint32_t>> outputs;  // (core, neuron)
    for (uint32_t c = 0; c < model.cores.size(); ++c)
        for (uint32_t n = 0; n < model.cores[c].dests.size(); ++n)
            if (model.cores[c].dests[n].kind == nscs::NeuronDest::Kind::Output)
                outputs.emplace_back(c, n);
    // Each flip lands in its own checkpoint interval, at offsets 2..9
    // from its start, so every seed replays the same number of ticks
    // and only where, in which neuron and which bit vary.
    InputRng rng(streamKey(seed, 0xC2));
    std::vector<uint64_t> windows(kEpisodeTicks / kCheckpointEvery);
    for (uint64_t w = 0; w < windows.size(); ++w)
        windows[w] = w;
    std::vector<uint64_t> ticks;
    for (uint32_t i = 0; i < kFlips; ++i) {
        std::swap(windows[i], windows[i + rng.below(windows.size() - i)]);
        ticks.push_back(windows[i] * kCheckpointEvery + 2 + i);
    }
    std::sort(ticks.begin(), ticks.end());
    nscs::FaultPlan plan;
    for (uint32_t i = 0; i < kFlips; ++i) {
        const auto &[core, neuron] = outputs[rng.below(outputs.size())];
        nscs::FaultEvent e;
        e.kind = nscs::FaultKind::PotentialFlip;
        e.id = i;
        e.tick = ticks[i];
        e.core = core;
        e.neuron = neuron;
        e.bit = static_cast<uint32_t>(rng.below(16));
        e.transient = true;
        plan.events.push_back(e);
    }
    return plan;
}

std::string
inputDigest(const nscs::FaultPlan &plan)
{
    const std::string text = plan.toJson().dump();
    Digest d;
    d.add(text.data(), text.size());
    return d.hex();
}

/** What an episode is checked on: its output stream and every
 *  neuron's potential when it ends. */
struct Outcome
{
    StreamHash out;
    Digest state;

    bool operator==(const Outcome &) const = default;
};

Outcome
outcome(const nscs::Simulator &sim)
{
    Outcome o;
    o.out.add(sim.recorder().spikes());
    const nscs::Board &b = sim.board();
    for (uint32_t i = 0; i < b.numChips(); ++i)
        for (uint32_t c = 0; c < b.chip(i).numCores(); ++c) {
            const nscs::Core &core = b.chip(i).core(c);
            for (uint32_t n = 0; n < core.config().geom.numNeurons; ++n)
                o.state.addValue(core.settledPotential(n, sim.now()));
        }
    return o;
}

/** One episode on the plain fabric with no faults and no checkpoints;
 *  @p busiest receives the link (chip * 4 + dir) that carried most. */
Outcome
cleanEpisode(const Deployment &d, std::vector<nscs::OutputSpike> &spikes,
             uint32_t &busiest)
{
    nscs::BoardParams bp = boardParams(d.model);
    bp.link.packetsPerTick = 0;
    bp.link.queueCapacity = 0;
    nscs::Simulator sim(bp, d.model.cores);
    sim.run(kEpisodeTicks);
    spikes = sim.recorder().spikes();
    const auto &links = sim.board().linkCounters();
    busiest = 0;
    for (uint32_t l = 0; l < links.size(); ++l)
        if (links[l].packets > links[busiest].packets)
            busiest = l;
    return outcome(sim);
}

/** A fabric defect for the self-test: link @p link loses every packet
 *  for a while, with no recovery. */
std::shared_ptr<const nscs::FaultPlan>
dropPlan(uint32_t link)
{
    auto plan = std::make_shared<nscs::FaultPlan>();
    nscs::FaultEvent e;
    e.kind = nscs::FaultKind::LinkDrop;
    e.tick = kDropFrom;
    e.untilTick = kDropUntil;
    e.chip = link / 4;
    e.dir = link % 4;
    plan->events.push_back(e);
    return plan;
}

} // namespace

Result
runRing(const Options &opt)
{
    Result r;
    Tracer tr(opt.trace);

    // The set-up tool flow, sampled before the timed region and again
    // between its episodes, outside the timed calls, so its median
    // samples the host over the whole run.
    Samples setup;
    struct Built
    {
        Deployment dep;
        std::shared_ptr<const nscs::FaultPlan> plan;
        std::unique_ptr<nscs::Simulator> sim;
    };
    auto build = [&] {
        Built b;
        auto t0 = Clock::now();
        b.dep = deploy(tr);
        // The plan is an input generated from the placed model; its
        // construction is not part of the measured set-up.
        auto p0 = Clock::now();
        b.plan = std::make_shared<const nscs::FaultPlan>(
            faultPlan(b.dep.model, opt.seed));
        const double planSeconds = secondsSince(p0);
        {
            auto s = tr.span("runtime.construct");
            b.sim = std::make_unique<nscs::Simulator>(
                fastParams(b.dep, b.plan), b.dep.model.cores);
            b.sim->setCheckpointInterval(kCheckpointEvery);
        }
        setup.add(secondsSince(t0) - planSeconds);
        return b;
    };
    Built live;
    for (int b = 0; b < kBuilds; ++b) {
        live.sim.reset();
        live = build();
    }
    const Deployment &dep = live.dep;
    const std::shared_ptr<const nscs::FaultPlan> &plan = live.plan;
    nscs::Simulator *sim = live.sim.get();

    // Episodes from reset, each the same cycle of calls.  A request is
    // one Simulator::run(1) step: one tick of progress, including any
    // rollback and replay it triggers.
    RepeatLog log(kEpisodeTicks, 1);
    std::vector<Outcome> episodes;
    uint64_t archTicks = 0, sops = 0, rollbacks = 0, replayed = 0;
    LayerTotals before, after;
    double untraced = 0.0, traced = 0.0;
    auto episode = [&](bool timeSteps) {
        sim->reset();
        before = readLayers(*sim);
        while (sim->now() < kEpisodeTicks) {
            if (timeSteps) {
                const uint64_t at = sim->now();
                auto s0 = Clock::now();
                sim->run(1);
                log.add(at, secondsSince(s0) * 1e3);
            } else {
                auto s = tr.span("runtime.tick", sim->now());
                sim->run(1);
            }
        }
        after = readLayers(*sim);
        archTicks += kEpisodeTicks;
        sops += delta(after.core.sops, before.core.sops);
        rollbacks += sim->recoveryStats().rollbacks;
        replayed += sim->recoveryStats().replayedTicks;
        episodes.push_back(outcome(*sim));
    };
    tr.setEnabled(false);
    episode(false);  // warm-up, checked like the rest
    archTicks = sops = rollbacks = replayed = 0;

    auto t0 = Clock::now();
    if (opt.trace) {
        // Half untraced, half traced: the tick-rate difference is the
        // tracing overhead.
        while (secondsSince(t0) < opt.seconds / 2)
            episode(false);
        untraced = static_cast<double>(archTicks) / secondsSince(t0);
        tr.setEnabled(true);
        const uint64_t a0 = archTicks;
        auto t1 = Clock::now();
        while (secondsSince(t1) < opt.seconds / 2)
            episode(false);
        traced = static_cast<double>(archTicks - a0) / secondsSince(t1);
    } else {
        size_t timed = 0;
        do {
            episode(true);
            if (++timed % kSetupEvery == 0)
                build();
        } while (secondsSince(t0) < opt.seconds);
    }
    r.peakRssMb = peakRssMb();

    // Check: every episode against the clean run.
    std::vector<nscs::OutputSpike> clean;
    uint32_t busiest = 0;
    Outcome expected;
    const auto c0 = Clock::now();
    {
        auto s = tr.span("check.clean_run");
        expected = cleanEpisode(dep, clean, busiest);
    }
    r.record.set("check_s", JsonValue::number(secondsSince(c0)));
    for (const Outcome &e : episodes) {
        ++r.attempted;
        if (!(e == expected))
            ++r.failed;
    }

    // Self-test: a stream with one spike moved by one tick must fail,
    // the flips must show when recovery is off, packets lost on the
    // busiest link must show, and the seed must regenerate the fault
    // plan.
    const bool perturbedCaught = perturbationCaught(clean);
    auto faulty = [&](std::shared_ptr<const nscs::FaultPlan> p) {
        nscs::Simulator s(fastParams(dep, std::move(p)), dep.model.cores);
        s.setAutoRecover(false);
        s.run(kEpisodeTicks);
        return outcome(s);
    };
    const bool faultsCaught = !(faulty(plan) == expected);
    const bool dropsCaught = !(faulty(dropPlan(busiest)) == expected);
    const std::string digest = inputDigest(*plan);
    const bool inputsRepeat =
        digest == inputDigest(faultPlan(dep.model, opt.seed));
    r.selfTestOk =
        perturbedCaught && faultsCaught && dropsCaught && inputsRepeat;

    JsonValue self = JsonValue::object();
    self.set("perturbed_stream_caught", JsonValue::boolean(perturbedCaught));
    self.set("unrecovered_faults_caught", JsonValue::boolean(faultsCaught));
    self.set("link_drops_caught", JsonValue::boolean(dropsCaught));
    self.set("inputs_repeat", JsonValue::boolean(inputsRepeat));
    r.record.set("self_test", std::move(self));
    r.record.set("input_digest", JsonValue::string(digest));
    r.record.set("gears", gearRecord(before, after));
    r.record.set("episodes",
                 JsonValue::integer(static_cast<int64_t>(episodes.size())));
    r.record.set("rollbacks", JsonValue::integer(static_cast<int64_t>(rollbacks)));
    r.record.set("replayed_ticks",
                 JsonValue::integer(static_cast<int64_t>(replayed)));

    if (opt.trace) {
        Samples tick = tr.durationsMs("runtime.tick");
        Summary ts = tick.summary();
        // Counters restart with each episode: these are the last
        // episode's.
        setLayerMetrics(r, before, after, kEpisodeTicks);
        r.set("runtime.tick_ms_p50", ts.median, "ms");
        r.set("runtime.tick_ms_p99", ts.p99, "ms");
        r.set("runtime.rollbacks",
              static_cast<double>(sim->recoveryStats().rollbacks), "count");
        r.set("runtime.replayed_ticks",
              static_cast<double>(sim->recoveryStats().replayedTicks),
              "count");
        r.set("runtime.construct_s",
              tr.durationsMs("runtime.construct").median() * 1e-3, "s");
        r.set("runtime.footprint_mb",
              static_cast<double>(sim->footprintBytes()) / (1 << 20), "MiB");
        measureCheckpoint(r, *sim, tr, 20);
        r.set("prog.compile_s",
              tr.durationsMs("prog.compile").median() * 1e-3, "s");
        r.set("prog.trace_s", tr.durationsMs("prog.trace").median() * 1e-3, "s");
        r.record.set("compile_estimate_s", JsonValue::number(
            tr.durationsMs("prog.compile_estimate").median() * 1e-3));
        r.set("prog.placement_cost", dep.placementCost, "cost");
        measureCoreConstruct(r, dep.model.cores[0], 1, tr, 50);
        r.set("trace.rate_ratio", traced / untraced, "ratio");
        r.record.set("tick_ms", tick.toJson());
        r.record.set("untraced_ticks_per_s", JsonValue::number(untraced));
        r.record.set("traced_ticks_per_s", JsonValue::number(traced));
        r.record.set("self_times", tr.selfTimes());
        tr.write(opt.outDir + "/spans-board-ring-ckpt.json");
        fillUnloadedLayers(r);
        return r;
    }

    log.finish();
    const double sopsPerTick =
        static_cast<double>(sops) / static_cast<double>(archTicks);
    r.set("ticks_per_s", log.rate(), "1/s");
    r.set("sops_per_s", sopsPerTick * log.rate(), "1/s");
    r.set("requests_per_s", log.rate(), "1/s");
    r.set("request_p50_ms", log.p50(), "ms");
    r.set("setup_s", setup.median(), "s");
    r.record.set("requests", log.toJson());
    r.record.set("setup_s", setup.toJson());
    return r;
}

} // namespace pb

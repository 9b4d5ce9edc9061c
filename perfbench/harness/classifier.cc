/**
 * @file
 * Workload classifier-b8: serving.
 *
 * The digits-8x8 10-class classifier of bench_classifier (a
 * perceptron trained on a fixed dataset and quantised to the on-chip
 * weight levels) is deployed once with 8 instance lanes.  One client
 * runs a closed loop: each classifyBatch pass serves its next 8
 * requests, and a request completes when its pass returns.
 *
 * The seed generates the requests: a pool of noisy variants of the
 * fixed test digits, and a cycle of requests drawn from it, which the
 * client sends over and over.
 * The check compares every served label with what a single-instance
 * deployment predicts for that sample.
 */

#include <algorithm>
#include <memory>

#include "apps/classifier.hh"
#include "apps/dataset.hh"
#include "apps/trainer.hh"
#include "common.hh"

namespace pb {

namespace {

using nscs::JsonValue;

constexpr uint32_t kLanes = 8;
constexpr uint32_t kWindow = 64;    //!< rate-code window in ticks
constexpr uint32_t kPool = 256;     //!< distinct request samples
constexpr uint32_t kCycle = 100;    //!< passes before the requests repeat
constexpr int kBuilds = 50;         //!< set-up samples before timing
constexpr int kSetupSamples = 4;    //!< set-up samples after each cycle
constexpr double kNoise = 0.06;

/** The deployed model: fixed, as in bench_classifier. */
struct Model
{
    nscs::QuantizedModel qm;
    nscs::Dataset test;
};

Model
buildModel()
{
    Model m;
    nscs::Dataset data = nscs::makeGaussianDigits(10, 8, 40, 0.06, 101);
    nscs::Dataset train;
    data.split(5, train, m.test);
    m.qm = nscs::quantize(nscs::trainPerceptron(train, 12, 7));
    return m;
}

/** The seeded request pool: noisy copies of test digits. */
std::vector<nscs::Sample>
buildPool(const nscs::Dataset &test, uint64_t seed)
{
    InputRng rng(streamKey(seed, 0xC1));
    std::vector<nscs::Sample> pool(kPool);
    for (nscs::Sample &s : pool) {
        const nscs::Sample &base = test.samples[rng.below(test.samples.size())];
        s.label = base.label;
        s.features.resize(base.features.size());
        for (size_t f = 0; f < s.features.size(); ++f)
            s.features[f] = std::clamp(base.features[f] + kNoise * rng.normal(),
                                       0.0, 1.0);
    }
    return pool;
}

/** Pool index of request @p r: a pure function of (seed, r), the
 *  same for every pass through the cycle. */
uint32_t
requestSample(uint64_t seed, uint64_t r)
{
    r %= uint64_t{kCycle} * kLanes;
    return static_cast<uint32_t>(InputRng(streamKey(seed, r)).below(kPool));
}

std::string
inputDigest(const std::vector<nscs::Sample> &pool, uint64_t seed)
{
    Digest d;
    for (const nscs::Sample &s : pool) {
        d.add(s.features.data(), s.features.size() * sizeof(double));
        d.addValue(s.label);
    }
    for (uint64_t r = 0; r < uint64_t{kCycle} * kLanes; ++r)
        d.addValue(requestSample(seed, r));
    return d.hex();
}

nscs::ClassifierOptions
options(uint32_t lanes)
{
    nscs::ClassifierOptions opt;
    opt.window = kWindow;
    opt.instances = lanes;
    return opt;
}

/** Served requests whose label differs from @p expected. */
uint64_t
mismatches(const std::vector<uint32_t> &samples,
           const std::vector<uint32_t> &labels,
           const std::vector<uint32_t> &expected)
{
    uint64_t n = 0;
    for (size_t i = 0; i < samples.size(); ++i)
        if (labels[i] != expected[samples[i]])
            ++n;
    return n;
}

} // namespace

Result
runClassifier(const Options &opt)
{
    Result r;
    Tracer tr(opt.trace);
    const Model model = buildModel();
    const std::vector<nscs::Sample> pool = buildPool(model.test, opt.seed);

    // Set-up is sampled before the timed region and again after each
    // cycle, outside the timed calls, so its median samples the host
    // over the whole run.
    Samples setup;
    auto deploy = [&] {
        auto t0 = Clock::now();
        auto s = tr.span("apps.deploy");
        auto c = std::make_unique<nscs::SpikingClassifier>(model.qm,
                                                           options(kLanes));
        setup.add(secondsSince(t0));
        return c;
    };
    std::unique_ptr<nscs::SpikingClassifier> clf;
    for (int b = 0; b < kBuilds; ++b) {
        clf.reset();
        clf = deploy();
    }

    // The check's reference: what a single-instance deployment
    // predicts for each pool sample.
    std::vector<uint32_t> expected(kPool);
    const auto c0 = Clock::now();
    {
        auto s = tr.span("check.single_instance");
        nscs::SpikingClassifier single(model.qm, options(1));
        for (uint32_t i = 0; i < kPool; ++i)
            expected[i] = single.classify(pool[i]);
    }
    r.record.set("check_s", JsonValue::number(secondsSince(c0)));

    uint64_t next = 0;  // next request id
    uint64_t correctLabels = 0;
    std::vector<uint32_t> served(kLanes), labels;
    std::vector<nscs::Sample> batch;
    auto pass = [&] {
        batch.clear();
        for (uint32_t k = 0; k < kLanes; ++k) {
            served[k] = requestSample(opt.seed, next++);
            batch.push_back(pool[served[k]]);
        }
        {
            auto s = tr.span("apps.classifyBatch", next - kLanes);
            labels = clf->classifyBatch(batch);
        }
        r.attempted += kLanes;
        r.failed += mismatches(served, labels, expected);
        for (uint32_t k = 0; k < kLanes; ++k)
            correctLabels += labels[k] == pool[served[k]].label;
    };
    // Warm-up: one whole cycle, so every input has been served once.
    for (uint32_t p = 0; p < kCycle; ++p)
        pass();

    const uint64_t ticksPerPass = kWindow + clf->gap();
    nscs::Simulator &sim = clf->simulator();
    const LayerTotals before = readLayers(sim);
    const uint64_t first = next;
    RepeatLog log(kCycle, kLanes);
    double untraced = 0.0, traced = 0.0;
    auto t0 = Clock::now();
    if (opt.trace) {
        // Half untraced, half traced: the request-rate difference is
        // the tracing overhead.
        tr.setEnabled(false);
        uint64_t n0 = next;
        while (secondsSince(t0) < opt.seconds / 2)
            pass();
        untraced = static_cast<double>(next - n0) / secondsSince(t0);
        tr.setEnabled(true);
        auto t1 = Clock::now();
        n0 = next;
        while (secondsSince(t1) < opt.seconds / 2)
            pass();
        traced = static_cast<double>(next - n0) / secondsSince(t1);
    } else {
        // Whole cycles only, so every pass position is timed equally
        // often.
        do {
            for (uint32_t p = 0; p < kCycle; ++p) {
                auto p0 = Clock::now();
                pass();
                log.add(p, secondsSince(p0) * 1e3);
            }
            for (int b = 0; b < kSetupSamples; ++b)
                deploy();
        } while (secondsSince(t0) < opt.seconds);
    }
    r.peakRssMb = peakRssMb();
    const LayerTotals after = readLayers(sim);
    const uint64_t requests = next - first;
    const uint64_t passes = requests / kLanes;

    // Self-test: one wrong label must count as one more failure, and
    // the seed must regenerate the requests.
    std::vector<uint32_t> wrong = labels;
    wrong[0] = (wrong[0] + 1) % 10;
    const bool wrongCaught = mismatches(served, wrong, expected) ==
        mismatches(served, labels, expected) + 1;
    const std::string digest = inputDigest(pool, opt.seed);
    const bool inputsRepeat =
        digest == inputDigest(buildPool(model.test, opt.seed), opt.seed);
    r.selfTestOk = wrongCaught && inputsRepeat;

    JsonValue self = JsonValue::object();
    self.set("wrong_label_caught", JsonValue::boolean(wrongCaught));
    self.set("inputs_repeat", JsonValue::boolean(inputsRepeat));
    r.record.set("self_test", std::move(self));
    r.record.set("input_digest", JsonValue::string(digest));
    r.record.set("gears", gearRecord(before, after));
    r.record.set("accuracy", JsonValue::number(
        static_cast<double>(correctLabels) / static_cast<double>(r.attempted)));

    if (opt.trace) {
        setLayerMetrics(r, before, after, passes * ticksPerPass);
        Samples pms = tr.durationsMs("apps.classifyBatch");
        Summary ps = pms.summary();
        r.set("apps.pass_ms_p50", ps.median, "ms");
        r.set("apps.pass_ms_p99", ps.p99, "ms");
        // A pass runs its ticks inside one call, so the tick time is
        // the pass time spread over its ticks.
        const double perTick = 1.0 / static_cast<double>(ticksPerPass);
        r.set("runtime.tick_ms_p50", ps.median * perTick, "ms");
        r.set("runtime.tick_ms_p99", ps.p99 * perTick, "ms");
        r.set("runtime.footprint_mb",
              static_cast<double>(sim.footprintBytes()) / (1 << 20), "MiB");
        measureCheckpoint(r, sim, tr, 20);

        // The program-side set-up steps, called one by one.
        const nscs::ClassifierOptions o = options(kLanes);
        const nscs::Network net = nscs::buildClassifierNetwork(
            model.qm, nscs::autoClassifierThreshold(model.qm));
        nscs::CompiledModel compiled;
        Samples compileS, constructS;
        for (int b = 0; b < kBuilds; ++b) {
            auto c0 = Clock::now();
            {
                auto s = tr.span("prog.compile");
                compiled = nscs::compile(net, o.compile);
            }
            compileS.add(secondsSince(c0));
            nscs::ChipParams cp;
            cp.width = compiled.gridWidth;
            cp.height = compiled.gridHeight;
            cp.coreGeom = compiled.geom;
            cp.engine = o.engine;
            cp.instances = o.instances;
            auto s0 = Clock::now();
            auto s = tr.span("runtime.construct");
            nscs::Simulator built(cp, compiled.cores);
            constructS.add(secondsSince(s0));
        }
        r.set("prog.compile_s", compileS.median(), "s");
        r.set("prog.placement_cost", compiled.stats.placementCost, "cost");
        r.set("runtime.construct_s", constructS.median(), "s");
        uint32_t busiest = 0;
        for (uint32_t c = 0; c < compiled.cores.size(); ++c)
            if (sim.chip().core(c).crossbar().synapseCount() >
                sim.chip().core(busiest).crossbar().synapseCount())
                busiest = c;
        measureCoreConstruct(r, compiled.cores[busiest], kLanes, tr, 50);
        r.set("trace.rate_ratio", traced / untraced, "ratio");
        r.record.set("pass_ms", pms.toJson());
        r.record.set("untraced_requests_per_s", JsonValue::number(untraced));
        r.record.set("traced_requests_per_s", JsonValue::number(traced));
        r.record.set("self_times", tr.selfTimes());
        tr.write(opt.outDir + "/spans-classifier-b8.json");
        fillUnloadedLayers(r);
        return r;
    }

    // Every request of a pass completes when the pass returns.
    log.finish();
    const double rps = log.rate();
    const double sopsPerRequest =
        static_cast<double>(delta(after.core.sops, before.core.sops)) /
        static_cast<double>(requests);
    r.set("ticks_per_s",
          rps * static_cast<double>(ticksPerPass) / kLanes, "1/s");
    r.set("sops_per_s", sopsPerRequest * rps, "1/s");
    r.set("requests_per_s", rps, "1/s");
    r.set("request_p50_ms", log.p50(), "ms");
    r.set("setup_s", setup.median(), "s");
    r.record.set("requests", log.toJson());
    r.record.set("setup_s", setup.toJson());
    return r;
}

} // namespace pb

/**
 * @file
 * `dlrm` workload: Table VII's deployment. SecureDlrm on Criteo-Terabyte
 * at full table sizes (dim 64), Hybrid-Varied generators with the
 * factory's fixed default threshold (11 scan features, 15 DHE features,
 * no per-run profiling), single-hot batches of 32 in a closed loop.
 * Exercises the GEMM/DHE path and the batch-32 scan; bypasses ORAM,
 * store and serving.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "dhe/dhe.h"
#include "dlrm/dataset.h"
#include "dlrm/model.h"
#include "harness.h"

namespace e2ebench {

using namespace secemb;

namespace {

constexpr int kBatch = 32;
constexpr uint64_t kModelSeed = 0x5ec0e1b;  // DHE + MLP weights, fixed
constexpr int kWarmupBatches = 8;
constexpr int kInputBatches = 256;  // distinct inputs, cycled

struct Deployment
{
    dlrm::DlrmConfig cfg;
    std::vector<std::shared_ptr<dhe::DheEmbedding>> dhes;
    std::unique_ptr<dlrm::SecureDlrm> model;
};

dlrm::DlrmConfig
Config(const Options& opt)
{
    const dlrm::DlrmConfig full = dlrm::DlrmConfig::CriteoTerabyte();
    return opt.tiny ? full.Scaled(2000) : full;
}

/** Build the model and warm it up: one set-up. */
Deployment
SetUp(const Options& opt, SpanLog* log,
      const std::vector<dlrm::CtrBatch>& inputs)
{
    Deployment d;
    d.cfg = Config(opt);
    Rng rng(kModelSeed);
    core::GeneratorOptions gopt;
    gopt.batch_size = kBatch;
    gopt.nthreads = kThreads;
    std::vector<std::unique_ptr<core::EmbeddingGenerator>> gens;
    for (int64_t f = 0; f < d.cfg.num_sparse(); ++f) {
        const int64_t rows = d.cfg.table_sizes[static_cast<size_t>(f)];
        // Built here rather than by the factory so the output check can
        // compare both hybrid sides against DheEmbedding::Forward.
        gopt.dhe = std::make_shared<dhe::DheEmbedding>(
            dhe::DheConfig::Varied(rows, d.cfg.emb_dim), rng, kThreads);
        d.dhes.push_back(gopt.dhe);
        gens.push_back(MaybeTrace(
            core::MakeGenerator(core::GenKind::kHybridVaried, rows,
                                d.cfg.emb_dim, rng, gopt),
            log, static_cast<int>(f), opt));
    }
    Rng mlp_rng(kModelSeed + 1);
    d.model = std::make_unique<dlrm::SecureDlrm>(d.cfg, std::move(gens),
                                                 mlp_rng);
    d.model->set_nthreads(kThreads);
    for (int i = 0; i < kWarmupBatches; ++i) {
        const dlrm::CtrBatch& b = inputs[static_cast<size_t>(i)];
        d.model->Inference(b.dense, b.sparse);
    }
    return d;
}

/** CTRs are finite probabilities. The closed interval is deliberate:
 *  the MLPs carry random weights, and a large logit rounds the float
 *  sigmoid to exactly 0 or 1. */
bool
CtrsValid(const Tensor& ctr, int64_t batch)
{
    if (ctr.numel() != batch) return false;
    for (int64_t i = 0; i < ctr.numel(); ++i) {
        const float p = ctr.data()[i];
        if (!std::isfinite(p) || p < 0.0f || p > 1.0f) return false;
    }
    return true;
}

/** Every embedding row the model consumes for `batch` equals the
 *  feature's DHE output within 1e-5 of the row's largest entry. */
void
CheckEmbeddings(Deployment& d, const dlrm::CtrBatch& batch, Result& res)
{
    for (int64_t f = 0; f < d.cfg.num_sparse(); ++f) {
        const auto& ids = batch.sparse[static_cast<size_t>(f)];
        const Tensor got = d.model->generator(f).GenerateBatch(ids);
        const Tensor want = d.dhes[static_cast<size_t>(f)]->Forward(ids);
        bool ok = got.shape() == want.shape();
        for (int64_t r = 0; ok && r < want.size(0); ++r) {
            float scale = 0.0f;
            for (const float w : want.row(r)) {
                scale = std::max(scale, std::fabs(w));
            }
            for (int64_t c = 0; c < want.size(1); ++c) {
                ok &= std::fabs(got.at(r, c) - want.at(r, c)) <=
                      1e-5f * scale;
            }
        }
        res.Check(ok, "dlrm: feature " + std::to_string(f) + " (" +
                          std::string(d.model->generator(f).name()) +
                          ") embedding differs from DheEmbedding::Forward");
    }
}

/** Weight bytes the GEMMs of one batch read, from parameter shapes:
 *  both MLPs plus the decoder of every DHE-side feature. */
double
WeightBytesPerBatch(Deployment& d)
{
    double floats = 0.0;
    int64_t in = d.cfg.num_dense;
    for (const int64_t h : d.cfg.bot_mlp) {
        floats += static_cast<double>(in * h);
        in = h;
    }
    in = d.cfg.InteractionOutputDim();
    std::vector<int64_t> top = d.cfg.top_mlp;
    top.push_back(1);
    for (const int64_t h : top) {
        floats += static_cast<double>(in * h);
        in = h;
    }
    for (int64_t f = 0; f < d.cfg.num_sparse(); ++f) {
        if (LayerOf(d.model->generator(f).name()) != "dhe") continue;
        for (nn::Parameter* p : d.dhes[static_cast<size_t>(f)]->Parameters()) {
            if (p->value.dim() == 2) {
                floats += static_cast<double>(p->value.numel());
            }
        }
    }
    return floats * sizeof(float);
}

}  // namespace

Result
RunDlrm(const Options& opt)
{
    const int64_t process_start_ns = NowNs();
    Result res;

    // Inputs depend on the workload seed only.
    dlrm::SyntheticCtrDataset data(Config(opt), opt.seed);
    std::vector<dlrm::CtrBatch> inputs;
    for (int i = 0; i < kInputBatches; ++i) {
        inputs.push_back(data.NextBatch(kBatch));
    }

    std::unique_ptr<SpanLog> log =
        opt.trace ? std::make_unique<SpanLog>() : nullptr;
    Deployment d = SetUp(opt, log.get(), inputs);
    res.Set("setup_cpu_s", CpuNs() * 1e-9, "s");
    res.Set("setup_wall_s", (NowNs() - process_start_ns) * 1e-9, "s");

    // Output checks before timing: the probe batch's embeddings, and its
    // CTRs, which must reproduce bit for bit at exit.
    const dlrm::CtrBatch& probe = inputs[0];
    CheckEmbeddings(d, probe, res);
    const Tensor probe_ctr = d.model->Inference(probe.dense, probe.sparse);
    res.Check(CtrsValid(probe_ctr, kBatch),
              "dlrm: probe CTRs not finite in [0,1]");

    if (log) log->Clear();
    MemoryProbe host_probe;
    const Counters before = Counters::Take();
    std::vector<double> batch_ns, batch_cpu_ns;
    std::vector<double> lag_ns;
    const int64_t end_ns =
        NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
    int64_t prev_end = 0;
    for (uint64_t i = 0;; ++i) {
        const dlrm::CtrBatch& b = inputs[i % inputs.size()];
        const int64_t t0 = NowNs();
        if (t0 >= end_ns && batch_ns.size() >= kMinLatencySamples) break;
        const int64_t c0 = CpuNs();
        Tensor ctr;
        {
            ScopedSpan span(log.get(), "Inference", i + 1);
            ctr = d.model->Inference(b.dense, b.sparse);
        }
        const int64_t t1 = NowNs();
        batch_cpu_ns.push_back(static_cast<double>(CpuNs() - c0));
        host_probe.MaybeRun(res);
        batch_ns.push_back(static_cast<double>(t1 - t0));
        if (prev_end != 0) lag_ns.push_back(static_cast<double>(t0 - prev_end));
        prev_end = t1;
        res.Check(CtrsValid(ctr, kBatch),
                  "dlrm: batch " + std::to_string(i) +
                      " CTRs not finite in [0,1]");
    }
    const Counters delta = Counters::Take().Minus(before);
    const std::vector<Span> spans =
        log ? log->Snapshot() : std::vector<Span>();
    res.Set("peak_rss_mb", PeakRssMb() - MemoryProbe::kMb, "MB");

    const Tensor again = d.model->Inference(probe.dense, probe.sparse);
    res.Check(again.shape() == probe_ctr.shape() &&
                  std::equal(again.data(), again.data() + again.numel(),
                             probe_ctr.data()),
              "dlrm: probe CTRs changed between start and exit");

    const double batches = static_cast<double>(batch_ns.size());
    double busy_ns = 0.0, cpu_ns = 0.0;
    for (size_t i = 0; i < batch_ns.size(); ++i) {
        busy_ns += batch_ns[i];
        cpu_ns += batch_cpu_ns[i];
        res.samples["latency_ms"].push_back(batch_ns[i] * 1e-6);
        res.samples["cpu_ms"].push_back(batch_cpu_ns[i] * 1e-6);
    }
    // A batch returns all its CTRs at once: its first output is the batch.
    res.samples["first_ms"] = res.samples["latency_ms"];
    res.samples["first_cpu_ms"] = res.samples["cpu_ms"];
    res.Set("throughput_per_s", batches * kBatch / (busy_ns * 1e-9), "1/s");
    res.Set("units_per_cpu_s", batches * kBatch / (cpu_ns * 1e-9), "1/s");

    if (log) {
        // Per batch: Inference span = MLPs + interaction (self) + one
        // generator span per feature (children).
        double inference_ns = 0.0, children_ns = 0.0;
        for (const Span& s : spans) {
            const double ns = static_cast<double>(s.end_ns - s.start_ns);
            (s.name == "Inference" ? inference_ns : children_ns) += ns;
        }
        res.Set("bench.unit_ms", inference_ns / batches * 1e-6, "ms");
        res.Set("bench.send_lag_p95_ms", Percentile(lag_ns, 95) * 1e-6,
                "ms");
        const double self_ns = inference_ns - children_ns;
        res.Set("dlrm.mlp_ms", self_ns / batches * 1e-6, "ms");
        res.Set("dlrm.mlp_pct", 100.0 * self_ns / inference_ns, "%");
        auto layer = SetGeneratorLayers(res, spans, batches, inference_ns,
                                        delta, d.cfg.emb_dim);
        // GEMMs run in the MLPs and the DHE decoders.
        const double gemm_ns = self_ns + layer["dhe"].ns;
        SetTensorCounts(res, delta, batches, WeightBytesPerBatch(d),
                        gemm_ns / batches * 1e-9);
        if (!opt.spans_path.empty() && !WriteSpans(opt.spans_path, spans)) {
            res.Check(false, "dlrm: cannot write " + opt.spans_path);
        }
    }

    return res;
}

}  // namespace e2ebench

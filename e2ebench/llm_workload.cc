/**
 * @file
 * `llm` workload: Fig. 15's deployment. SecureGpt at bench scale (dim
 * 256, GPT-2 vocabulary, 4 layers) with a DHE token generator sized per
 * the paper's LLM rule; each request is batch 4 with a 64-token prompt
 * and generates 32 tokens by oblivious greedy argmax, in a closed loop.
 * Skinny-m GEMMs dominate decode; bypasses the table scan, ORAM, store
 * and serving.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "dhe/dhe.h"
#include "harness.h"
#include "llm/gpt.h"

namespace e2ebench {

using namespace secemb;

namespace {

constexpr uint64_t kModelSeed = 0x6e7;  // DHE + trunk weights, fixed
constexpr int kInputRequests = 64;      // distinct prompts, cycled

struct Shape
{
    int64_t batch, prompt, generate;
    llm::GptConfig cfg;
};

Shape
ShapeFor(const Options& opt)
{
    Shape s{4, 64, 32, llm::GptConfig::BenchScale(256, 50257, 4)};
    if (opt.tiny) {
        s = {2, 8, 6, llm::GptConfig::BenchScale(64, 997, 2)};
    }
    s.cfg.max_seq = s.prompt + s.generate + 8;
    return s;
}

std::unique_ptr<llm::SecureGpt>
SetUp(const Options& opt, const Shape& shape, SpanLog* log,
      const std::vector<std::vector<int64_t>>& warm_prompts)
{
    Rng rng(kModelSeed);
    core::GeneratorOptions gopt;
    gopt.nthreads = kThreads;
    gopt.dhe = std::make_shared<dhe::DheEmbedding>(
        dhe::DheConfig::ForLlm(shape.cfg.dim), rng, kThreads);
    auto gen = MaybeTrace(
        core::MakeGenerator(core::GenKind::kDheUniform, shape.cfg.vocab_size,
                            shape.cfg.dim, rng, gopt),
        log, 0, opt);
    Rng trunk_rng(kModelSeed + 1);
    auto model = std::make_unique<llm::SecureGpt>(shape.cfg, std::move(gen),
                                                  trunk_rng, kThreads);
    // Warm-up: one prefill packs every trunk weight; a few decode steps
    // take the skinny-m shapes.
    Tensor logits = model->Prefill(warm_prompts);
    for (int s = 0; s < 4; ++s) {
        logits = model->DecodeStep(model->GreedyTokens(logits));
    }
    return model;
}

/** Weight bytes one decode step's GEMMs read, from parameter shapes:
 *  every block's attention and MLP projections, the LM head, and the DHE
 *  decoder. */
double
WeightBytesPerStep(const llm::GptConfig& c)
{
    const double d = static_cast<double>(c.dim);
    const double block = d * 3 * d + d * d + 2 * d * c.ffn_mult * d;
    double floats = block * static_cast<double>(c.num_layers) +
                    d * static_cast<double>(c.vocab_size);
    const dhe::DheConfig dc = dhe::DheConfig::ForLlm(c.dim);
    int64_t in = dc.k;
    for (const int64_t h : dc.fc_hidden) {
        floats += static_cast<double>(in * h);
        in = h;
    }
    floats += static_cast<double>(in * dc.out_dim);
    return floats * sizeof(float);
}

}  // namespace

Result
RunLlm(const Options& opt)
{
    const int64_t process_start_ns = NowNs();
    const Shape shape = ShapeFor(opt);
    Result res;

    // Prompts depend on the workload seed only.
    Rng prompt_rng(opt.seed);
    std::vector<std::vector<std::vector<int64_t>>> requests(kInputRequests);
    for (auto& prompts : requests) {
        prompts.assign(static_cast<size_t>(shape.batch), {});
        for (auto& p : prompts) {
            for (int64_t t = 0; t < shape.prompt; ++t) {
                p.push_back(static_cast<int64_t>(prompt_rng.NextBounded(
                    static_cast<uint64_t>(shape.cfg.vocab_size))));
            }
        }
    }

    std::unique_ptr<SpanLog> log =
        opt.trace ? std::make_unique<SpanLog>() : nullptr;
    std::unique_ptr<llm::SecureGpt> model =
        SetUp(opt, shape, log.get(), requests.back());
    res.Set("setup_cpu_s", CpuNs() * 1e-9, "s");
    res.Set("setup_wall_s", (NowNs() - process_start_ns) * 1e-9, "s");

    // Wall and CPU time of one step, accumulated across its calls.
    struct Step
    {
        double ns = 0.0, cpu_ns = 0.0;
    };
    // Greedy step with the output check outside the timed region: the
    // oblivious argmax must agree with the plain one on the same logits.
    auto greedy = [&](const Tensor& logits, uint64_t group, Step* step) {
        const int64_t t0 = NowNs();
        const int64_t c0 = CpuNs();
        std::vector<int64_t> next;
        {
            ScopedSpan span(log.get(), "GreedyTokens", group);
            next = model->GreedyTokens(logits);
        }
        step->cpu_ns += static_cast<double>(CpuNs() - c0);
        step->ns += static_cast<double>(NowNs() - t0);
        res.Check(next == model->GreedyTokensNonSecure(logits),
                  "llm: oblivious argmax differs from plain argmax");
        return next;
    };

    if (log) log->Clear();
    MemoryProbe host_probe;
    Counters decode;  // counter deltas over decode phases only

    std::vector<Step> ttft, tbt;
    std::vector<double> lag_ns;
    std::vector<std::vector<int64_t>> first_tokens;
    const int64_t end_ns =
        NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
    int64_t prev_end = 0;
    double busy_ns = 0.0, busy_cpu_ns = 0.0;
    int64_t generated = 0;
    for (uint64_t r = 0;; ++r) {
        const auto& prompts = requests[r % requests.size()];
        if (NowNs() >= end_ns && tbt.size() >= kMinLatencySamples) break;
        std::vector<std::vector<int64_t>> tokens;
        Step first;
        const int64_t t0 = NowNs();
        const int64_t c0 = CpuNs();
        if (prev_end != 0) lag_ns.push_back(static_cast<double>(t0 - prev_end));
        Tensor logits;
        {
            ScopedSpan span(log.get(), "Prefill", r + 1);
            logits = model->Prefill(prompts);
        }
        first.cpu_ns += static_cast<double>(CpuNs() - c0);
        first.ns += static_cast<double>(NowNs() - t0);
        tokens.push_back(greedy(logits, r + 1, &first));
        ttft.push_back(first);
        const Counters decode_start = log ? Counters::Take() : Counters();
        Step request = first;
        for (int64_t s = 1; s < shape.generate; ++s) {
            Step step;
            const int64_t s0 = NowNs();
            const int64_t sc0 = CpuNs();
            {
                ScopedSpan span(log.get(), "DecodeStep", r + 1);
                logits = model->DecodeStep(tokens.back());
            }
            step.cpu_ns += static_cast<double>(CpuNs() - sc0);
            step.ns += static_cast<double>(NowNs() - s0);
            tokens.push_back(greedy(logits, r + 1, &step));
            tbt.push_back(step);
            host_probe.MaybeRun(res);
            request.ns += step.ns;
            request.cpu_ns += step.cpu_ns;
        }
        prev_end = NowNs();
        busy_ns += request.ns;
        busy_cpu_ns += request.cpu_ns;
        generated += shape.batch * shape.generate;
        if (log) decode += Counters::Take().Minus(decode_start);
        if (r == 0) first_tokens = tokens;
    }
    const std::vector<Span> spans =
        log ? log->Snapshot() : std::vector<Span>();
    res.Set("peak_rss_mb", PeakRssMb() - MemoryProbe::kMb, "MB");

    // Replay the first request: same prompts, same tokens.
    {
        std::vector<std::vector<int64_t>> tokens;
        Tensor logits = model->Prefill(requests[0]);
        for (int64_t s = 0; s < shape.generate; ++s) {
            if (s > 0) logits = model->DecodeStep(tokens.back());
            tokens.push_back(model->GreedyTokens(logits));
        }
        res.Check(tokens == first_tokens,
                  "llm: replay of the first request changed its tokens");
    }

    for (const Step& s : tbt) {
        res.samples["latency_ms"].push_back(s.ns * 1e-6);
        res.samples["cpu_ms"].push_back(s.cpu_ns * 1e-6);
    }
    for (const Step& s : ttft) {
        res.samples["first_ms"].push_back(s.ns * 1e-6);
        res.samples["first_cpu_ms"].push_back(s.cpu_ns * 1e-6);
    }
    res.Set("throughput_per_s", generated / (busy_ns * 1e-9), "1/s");
    res.Set("units_per_cpu_s", generated / (busy_cpu_ns * 1e-9), "1/s");

    if (log) {
        // Prefill = trunk (self) + token embedding (child); the first
        // GreedyTokens closes TTFT. DecodeStep = trunk (self) + token
        // embedding (child); with the next GreedyTokens it makes a TBT.
        std::map<uint64_t, std::string_view> name_of;
        for (const Span& s : spans) name_of[s.id] = s.name;
        double prefill_ns = 0, prefill_emb_ns = 0, decode_ns = 0,
               decode_emb_ns = 0, first_argmax_ns = 0, argmax_ns = 0;
        int64_t prefills = 0, steps = 0;
        std::map<uint64_t, int> greedy_seen;  // per request
        for (const Span& s : spans) {
            const double ns = static_cast<double>(s.end_ns - s.start_ns);
            if (s.name == "Prefill") {
                prefill_ns += ns;
                ++prefills;
            } else if (s.name == "DecodeStep") {
                decode_ns += ns;
                ++steps;
            } else if (s.name == "GreedyTokens") {
                (greedy_seen[s.group]++ == 0 ? first_argmax_ns
                                             : argmax_ns) += ns;
            } else if (s.layer == "dhe") {
                (name_of[s.parent] == "Prefill" ? prefill_emb_ns
                                                : decode_emb_ns) += ns;
            }
        }
        const double requests_n = static_cast<double>(prefills);
        const double steps_n = static_cast<double>(steps);
        const double ttft_total = prefill_ns + first_argmax_ns;
        const double tbt_total = decode_ns + argmax_ns;
        res.Set("bench.unit_ms", tbt_total / steps_n * 1e-6, "ms");
        res.Set("bench.send_lag_p95_ms", Percentile(lag_ns, 95) * 1e-6,
                "ms");
        const double trunk_prefill = prefill_ns - prefill_emb_ns;
        const double trunk_decode = decode_ns - decode_emb_ns;
        res.Set("llm.trunk_prefill_ms", trunk_prefill / requests_n * 1e-6,
                "ms");
        res.Set("llm.trunk_prefill_pct", 100.0 * trunk_prefill / ttft_total,
                "%");
        res.Set("llm.trunk_decode_ms", trunk_decode / steps_n * 1e-6, "ms");
        res.Set("llm.trunk_decode_pct", 100.0 * trunk_decode / tbt_total,
                "%");
        SetLayerTime(res, "dhe.prefill", prefill_emb_ns, prefills,
                     requests_n, ttft_total);
        SetLayerTime(res, "dhe.decode", decode_emb_ns, steps, steps_n,
                     tbt_total);
        SetLayerTime(res, "oblivious.argmax", argmax_ns, steps, steps_n,
                     tbt_total);
        // Counts per decode step, from the decode phases only.
        SetTensorCounts(res, decode, steps_n, WeightBytesPerStep(shape.cfg),
                        trunk_decode / steps_n * 1e-9);
        if (!opt.spans_path.empty() && !WriteSpans(opt.spans_path, spans)) {
            res.Check(false, "llm: cannot write " + opt.spans_path);
        }
    }

    return res;
}

}  // namespace e2ebench

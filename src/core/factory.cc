#include "core/factory.h"

#include <cassert>
#include <cmath>

#include "core/paged_generators.h"
#include "core/table_generators.h"

namespace secemb::core {

std::string_view
GenKindName(GenKind kind)
{
    switch (kind) {
      case GenKind::kIndexLookup: return "Index Lookup (non-secure)";
      case GenKind::kLinearScan: return "Linear Scan";
      case GenKind::kPathOram: return "Path ORAM";
      case GenKind::kCircuitOram: return "Circuit ORAM";
      case GenKind::kDheUniform: return "DHE Uniform";
      case GenKind::kDheVaried: return "DHE Varied";
      case GenKind::kHybridUniform: return "Hybrid Uniform";
      case GenKind::kHybridVaried: return "Hybrid Varied";
      case GenKind::kProxyOram: return "Path ORAM (proxy)";
      case GenKind::kPagedScan: return "Paged Linear Scan";
      case GenKind::kRawOram: return "RAW ORAM";
    }
    return "?";
}

namespace {

Tensor
RandomTable(int64_t rows, int64_t dim, Rng& rng)
{
    return Tensor::Randn({rows, dim}, rng,
                         1.0f / std::sqrt(static_cast<float>(dim)));
}

std::shared_ptr<dhe::DheEmbedding>
MakeDhe(bool varied, int64_t table_size, int64_t dim, Rng& rng,
        const GeneratorOptions& opt)
{
    if (opt.dhe) return opt.dhe;
    const dhe::DheConfig cfg = varied
                                   ? dhe::DheConfig::Varied(table_size, dim)
                                   : dhe::DheConfig::Uniform(dim);
    return std::make_shared<dhe::DheEmbedding>(cfg, rng, opt.nthreads);
}

}  // namespace

std::unique_ptr<EmbeddingGenerator>
MakeGenerator(GenKind kind, int64_t table_size, int64_t dim, Rng& rng,
              const GeneratorOptions& opt)
{
    assert(table_size > 0 && dim > 0);
    auto table = [&]() {
        return opt.table ? *opt.table : RandomTable(table_size, dim, rng);
    };

    switch (kind) {
      case GenKind::kIndexLookup:
        return std::make_unique<TableLookup>(table());
      case GenKind::kLinearScan: {
        auto g = std::make_unique<LinearScanTable>(table());
        g->set_nthreads(opt.nthreads);
        return g;
      }
      case GenKind::kPathOram:
        return std::make_unique<OramTable>(table(), oram::OramKind::kPath,
                                           rng);
      case GenKind::kCircuitOram:
        return std::make_unique<OramTable>(table(),
                                           oram::OramKind::kCircuit, rng);
      case GenKind::kProxyOram:
        return std::make_unique<ProxiedOramTable>(
            table(), oram::OramKind::kPath, rng);
      case GenKind::kPagedScan: {
        const Tensor t = table();
        auto g = std::make_unique<PagedScanTable>(
            t, opt.store ? *opt.store : store::StoreConfig{});
        g->set_nthreads(opt.nthreads);
        return g;
      }
      case GenKind::kRawOram: {
        const Tensor t = table();
        return std::make_unique<RawOramTable>(
            t, rng, opt.store ? *opt.store : store::StoreConfig{});
      }
      case GenKind::kDheUniform:
        return std::make_unique<DheGenerator>(
            MakeDhe(false, table_size, dim, rng, opt), table_size);
      case GenKind::kDheVaried:
        return std::make_unique<DheGenerator>(
            MakeDhe(true, table_size, dim, rng, opt), table_size);
      case GenKind::kHybridUniform:
      case GenKind::kHybridVaried: {
        static const ThresholdTable kDefault;  // empty -> 4096 fallback
        const ThresholdTable& thr =
            opt.thresholds ? *opt.thresholds : kDefault;
        return std::make_unique<HybridGenerator>(
            MakeDhe(kind == GenKind::kHybridVaried, table_size, dim, rng,
                    opt),
            table_size, thr, opt.batch_size, opt.nthreads);
      }
    }
    return nullptr;
}

}  // namespace secemb::core

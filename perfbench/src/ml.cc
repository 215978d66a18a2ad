// `ml`: the paper's AI scenarios. First one client trains the MNIST-grid
// trainable query — `parse_mnist_grid` CNNs under a soft GROUP BY — for a
// fixed number of Adam steps. Then 4 clients run a closed loop on one
// Session: image-text similarity through SimClip's `image_text_similarity`
// UDF over a 512-image attachment corpus, and filtered `dot` top-k over a
// 64K x 128 embedding table with an IVF index. The models, udf, autograd,
// nn, index and inference-scheduler layers do their work here and nowhere
// else.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/common/rng.h"
#include "src/data/attachments.h"
#include "src/data/mnist_grid.h"
#include "src/models/clip.h"
#include "src/models/tvfs.h"
#include "src/nn/loss.h"
#include "src/nn/optim.h"
#include "src/runtime/inference_scheduler.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace perfbench {
namespace {

using tdp::Device;
using tdp::Tensor;
using tdp::exec::ScalarValue;

constexpr int kClients = 4;
constexpr int64_t kPhotos = 256, kReceipts = 128, kLogos = 128;
constexpr int64_t kSmallRange = 16;
constexpr int64_t kVectors = 65536;
constexpr int64_t kDim = 128;
constexpr int64_t kClusters = 64;
constexpr int64_t kQueryPool = 64;
constexpr int64_t kTopK = 10;
constexpr int64_t kIndexLists = 16;
constexpr int64_t kProbeBudget = 4;  // of kIndexLists cells
constexpr int64_t kTrainGrids = 64;
constexpr int64_t kGridsPerStep = 8;
constexpr int kTrainSteps = 200;
constexpr int64_t kLossWindow = 20;
/// The first one or two set-ups of a process run up to 1.5x slower than
/// the rest; with seven, the median is a warm one.
constexpr int kSetupRepeats = 7;
/// Vector scores are float32 dot products summed in a different order
/// than the benchmark's double loop.
constexpr double kScoreTol = 1e-4;
/// Engine and direct model calls run the same kernels on the same device.
constexpr double kSimilarityTol = 1e-6;
const char* const kConcepts[] = {"dog", "receipt", "kfc logo"};
constexpr int kNumConcepts = 3;

enum Kind { kInferSmall, kInferScan, kVectorProbe, kVectorExact, kNumKinds };
const char* const kKindNames[kNumKinds] = {"infer_small", "infer_scan",
                                           "vector_probe", "vector_exact"};
/// One client round of 20 requests; probe-budget vector search dominates.
const std::vector<int> kRound = {6, 1, 10, 3};

std::string SmallSql(int c) {
  return std::string("SELECT id, image_text_similarity('") + kConcepts[c] +
         "', images) AS s FROM Attachments WHERE id >= ? AND id < ?";
}
std::string ScanSql(int c) {
  return std::string("SELECT id, image_text_similarity('") + kConcepts[c] +
         "', images) AS s FROM Attachments ORDER BY s DESC LIMIT 10";
}
const char* const kVectorSql =
    "SELECT id, dot(emb, ?) AS sim FROM vecs WHERE grp < 8 "
    "ORDER BY sim DESC LIMIT 10";
const char* const kTrainSql =
    "SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) "
    "GROUP BY Digit, Size";

struct ClientStats {
  int64_t ops = 0, failed = 0;
  double round_s = 0;             // time in engine calls, current round
  std::vector<double> rounds_s;   // the same, per finished round
  std::vector<double> probe_ms, exact_ms;
};

struct Measured {
  int64_t ops = 0, failed = 0;
  /// Images through the similarity UDF per second: each client's images
  /// per round over its median round time in engine calls, summed over
  /// clients. The median keeps a stall of the machine out of the figure.
  double rate = 0;
  std::vector<double> probe_ms, exact_ms;
};

class Ml {
 public:
  Ml(const RunConfig& config, CheckLog& log) : config_(config), log_(log) {}

  Outcome Run() {
    Outcome outcome;
    const double setup_s =
        MedianSetupSeconds(config_.trace ? 1 : kSetupRepeats, [&] { Setup(); });
    // References, outside any timing: the model called directly on the
    // whole corpus, and each pooled query's exact k-th best score.
    for (int c = 0; c < kNumConcepts; ++c) {
      corpus_scores_.push_back(Similarity(c, images_));
    }
    for (const std::vector<float>& q : queries_) {
      exact_kth_.push_back(BruteForceTopK(q).back().first);
    }

    // Training runs a fixed number of steps; the serving loop gets the
    // whole --seconds, so a burst of load on the host weighs less in it.
    const double serving_s = config_.seconds;
    tdp::runtime::InferenceScheduler::Global().ResetStats();
    if (!config_.trace) {
      Train();
      const Measured m = Measure(serving_s);
      outcome.attempted = m.ops + kTrainSteps;
      outcome.failed = m.failed;
      outcome.e2e["setup_s"] = {setup_s, "s"};
      outcome.e2e["throughput_per_s"] = {m.rate, "1/s"};
      outcome.e2e["latency_p50_ms"] = {Median(m.probe_ms), "ms"};
      // p90 of over a thousand probes. p95 read 19-35 ms over ten runs of
      // 9 s (spread 0.26): a slow minute on the shared host moved it most.
      outcome.e2e["latency_tail_ms"] = {Percentile(m.probe_ms, 0.9), "ms"};
      // The exact-budget search beside the probe. The training step would
      // be the natural slow path, but on a shared host bursts of CPU steal
      // moved its median by up to a half from run to run; it is the
      // per-layer client.train_step_ms.
      outcome.e2e["slow_path_ms"] = {Median(m.exact_ms), "ms"};
      return outcome;
    }
    trace::SetEnabled(true);
    Train();
    trace::SetEnabled(false);
    const TracedSlices slices = MeasureAlternating(serving_s, [&](double s) {
      const Measured m = Measure(s);
      return Slice{m.ops, m.failed, m.rate};
    });
    const auto scheduler = tdp::runtime::InferenceScheduler::Global().stats();
    trace::SetEnabled(true);
    Replay();
    trace::SetEnabled(false);
    outcome.attempted = slices.ops + kTrainSteps;
    outcome.failed = slices.failed;
    outcome.layer =
        Layers(slices.untraced_rate, slices.traced_rate, scheduler);
    return outcome;
  }

 private:
  void Setup() {
    session_ = std::make_unique<tdp::Session>();
    train_session_ = std::make_unique<tdp::Session>();
    tdp::Rng rng(config_.seed);

    tdp::data::AttachmentDataset corpus =
        tdp::data::MakeAttachmentDataset(kPhotos, kReceipts, kLogos, rng);
    images_ = corpus.images;
    std::vector<int64_t> ids(static_cast<size_t>(images_.size(0)));
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
    auto attachments = tdp::TableBuilder("Attachments")
                           .AddInt64("id", ids)
                           .AddTensor("images", images_)
                           .Build();
    TDP_CHECK(attachments.ok());
    TDP_CHECK(session_->RegisterTable("Attachments", *attachments).ok());
    clip_ = std::make_shared<tdp::models::SimClip>();
    TDP_CHECK(tdp::models::RegisterImageTextSimilarityUdf(
                  session_->functions(), clip_)
                  .ok());

    // Clustered unit vectors: the shape IVF partitioning is built for.
    std::vector<float> centers(static_cast<size_t>(kClusters * kDim));
    for (float& x : centers) x = static_cast<float>(rng.Normal());
    emb_.assign(static_cast<size_t>(kVectors * kDim), 0);
    grp_.assign(static_cast<size_t>(kVectors), 0);
    for (int64_t i = 0; i < kVectors; ++i) {
      const int64_t c = static_cast<int64_t>(rng.NextUint64(kClusters));
      float* row = &emb_[static_cast<size_t>(i * kDim)];
      double norm = 0;
      for (int64_t j = 0; j < kDim; ++j) {
        row[j] = centers[static_cast<size_t>(c * kDim + j)] +
                 static_cast<float>(rng.Normal(0, 0.5));
        norm += static_cast<double>(row[j]) * row[j];
      }
      for (int64_t j = 0; j < kDim; ++j) {
        row[j] = static_cast<float>(row[j] / std::sqrt(norm));
      }
      grp_[static_cast<size_t>(i)] = static_cast<int64_t>(rng.NextUint64(10));
    }
    queries_.clear();
    for (int64_t q = 0; q < kQueryPool; ++q) {
      std::vector<float> v(static_cast<size_t>(kDim));
      const int64_t c = static_cast<int64_t>(rng.NextUint64(kClusters));
      for (int64_t j = 0; j < kDim; ++j) {
        v[static_cast<size_t>(j)] =
            centers[static_cast<size_t>(c * kDim + j)] +
            static_cast<float>(rng.Normal(0, 0.5));
      }
      queries_.push_back(v);
    }
    std::vector<int64_t> vec_ids(static_cast<size_t>(kVectors));
    for (size_t i = 0; i < vec_ids.size(); ++i) {
      vec_ids[i] = static_cast<int64_t>(i);
    }
    auto vecs = tdp::TableBuilder("vecs")
                    .AddInt64("id", vec_ids)
                    .AddInt64("grp", grp_)
                    .AddTensor("emb", Tensor::FromVector(emb_, {kVectors, kDim}))
                    .Build();
    TDP_CHECK(vecs.ok());
    TDP_CHECK(session_->RegisterTable("vecs", *vecs).ok());
    const auto build_start = Clock::now();
    tdp::index::IvfIndex::Options index_options;
    index_options.num_lists = kIndexLists;
    TDP_CHECK(session_->CreateVectorIndex("vecs", "emb", index_options).ok());
    index_build_s_ = SecondsSince(build_start);

    tdp::Rng train_rng(config_.seed + 1);
    train_ = tdp::data::MakeMnistGridDataset(kTrainGrids, train_rng);
    auto tvf = tdp::models::RegisterParseMnistGridTvf(
        train_session_->functions(), train_rng);
    TDP_CHECK(tvf.ok());
    RegisterGrid(0);
    tdp::QueryOptions trainable;
    trainable.trainable = true;
    train_query_ = train_session_->Query(kTrainSql, trainable).value();

    // Warm-up: every statement compiled and run once.
    for (int c = 0; c < kNumConcepts; ++c) {
      tdp::exec::RunOptions small;
      small.params = {ScalarValue::Int(0), ScalarValue::Int(kSmallRange)};
      TDP_CHECK(session_->Sql(SmallSql(c), {}, small).ok());
      TDP_CHECK(session_->Sql(ScanSql(c)).ok());
    }
    tdp::exec::RunOptions vector;
    vector.params = {ScalarValue::FromTensor(Tensor::FromVector(queries_[0]))};
    TDP_CHECK(session_->Sql(kVectorSql, {}, vector).ok());
  }

  void RegisterGrid(int64_t i) {
    auto table =
        tdp::TableBuilder("MNIST_Grid")
            .AddTensor("image",
                       tdp::Slice(train_.grids, 0, i, 1).Contiguous())
            .Build();
    TDP_CHECK(table.ok());
    TDP_CHECK(train_session_->RegisterTable("MNIST_Grid", *table, Device::kAccel)
                  .ok());
  }

  int64_t ImagesPerRound() const {
    return kRound[kInferSmall] * kSmallRange +
           kRound[kInferScan] * images_.size(0);
  }

  /// SimClip called directly on the engine's device.
  std::vector<double> Similarity(int c, const Tensor& images) const {
    auto scores = clip_->Similarity(kConcepts[c], images.To(Device::kAccel));
    TDP_CHECK(scores.ok());
    return scores->To(Device::kCpu).To(tdp::DType::kFloat64).ToVector<double>();
  }

  double Dot(int64_t row, const std::vector<float>& q) const {
    const float* e = &emb_[static_cast<size_t>(row * kDim)];
    double sum = 0;
    for (int64_t j = 0; j < kDim; ++j) {
      sum += static_cast<double>(e[j]) * q[static_cast<size_t>(j)];
    }
    return sum;
  }

  /// Exact top-k ids by brute force over the rows passing `grp < 8`.
  std::vector<std::pair<double, int64_t>> BruteForceTopK(
      const std::vector<float>& q) const {
    std::vector<std::pair<double, int64_t>> scored;
    for (int64_t i = 0; i < kVectors; ++i) {
      if (grp_[static_cast<size_t>(i)] < 8) scored.push_back({Dot(i, q), i});
    }
    std::partial_sort(scored.begin(), scored.begin() + kTopK, scored.end(),
                      std::greater<>());
    scored.resize(kTopK);
    return scored;
  }

  void Request(Kind kind, tdp::Rng& rng, ClientStats& stats) {
    const int concept_index = static_cast<int>(rng.NextUint64(kNumConcepts));
    const auto query_index = static_cast<size_t>(rng.NextUint64(kQueryPool));
    const int64_t lo = static_cast<int64_t>(
        rng.NextUint64(static_cast<uint64_t>(images_.size(0) - kSmallRange)));
    std::string sql;
    tdp::exec::RunOptions run;
    switch (kind) {
      case kInferSmall:
        sql = SmallSql(concept_index);
        run.params = {ScalarValue::Int(lo), ScalarValue::Int(lo + kSmallRange)};
        break;
      case kInferScan:
        sql = ScanSql(concept_index);
        break;
      default:
        sql = kVectorSql;
        run.params = {ScalarValue::FromTensor(
            Tensor::FromVector(queries_[query_index]))};
        if (kind == kVectorProbe) run.vector_search.num_probes = kProbeBudget;
    }

    const bool vector = kind == kVectorProbe || kind == kVectorExact;
    trace::Span span("client.request", kKindNames[kind]);
    const auto start = Clock::now();
    tdp::StatusOr<std::shared_ptr<tdp::Table>> result =
        std::shared_ptr<tdp::Table>();
    std::shared_ptr<tdp::exec::CompiledQuery> query;
    {
      trace::Span prepare("runtime.prepare", kKindNames[kind]);
      auto prepared = session_->Prepare(sql);
      if (prepared.ok()) query = *prepared;
      else result = prepared.status();
    }
    if (query != nullptr) {
      trace::Span exec(vector ? "index.run" : "exec.run", kKindNames[kind]);
      result = query->Run(run);
    }
    const double ms = MicrosSince(start) / 1e3;
    stats.round_s += ms / 1e3;
    ++stats.ops;
    if (!log_.NoteFailure(result.ok() ? "" : result.status().ToString(),
                     kKindNames[kind])) {
      ++stats.failed;
    } else {
      if (kind == kVectorProbe) stats.probe_ms.push_back(ms);
      if (kind == kVectorExact) stats.exact_ms.push_back(ms);
      log_.Expect(Check(kind, concept_index, lo, query_index, **result),
                  kKindNames[kind]);
    }
  }

  std::string Check(Kind kind, int concept_index, int64_t lo,
                    size_t query_index, const tdp::Table& t) const {
    const std::vector<int64_t> ids = IntColumn(t, 0);
    const std::vector<double> scores = NumColumn(t, 1);
    if (kind == kInferSmall) {
      std::vector<int64_t> want_ids;
      for (int64_t i = lo; i < lo + kSmallRange; ++i) want_ids.push_back(i);
      std::string error = checks::CompareInts(want_ids, ids, "ids");
      if (!error.empty()) return error;
      const std::vector<double>& all =
          corpus_scores_[static_cast<size_t>(concept_index)];
      return checks::CompareFloats(
          std::vector<double>(all.begin() + lo, all.begin() + lo + kSmallRange),
          scores, kSimilarityTol, "similarity");
    }
    if (kind == kInferScan) {
      const std::vector<double>& all = corpus_scores_[static_cast<size_t>(concept_index)];
      std::vector<double> sorted = all;
      std::nth_element(sorted.begin(), sorted.begin() + (kTopK - 1),
                       sorted.end(), std::greater<>());
      return checks::CheckTopKExact(
          [&](int64_t id) { return all[static_cast<size_t>(id)]; }, kTopK,
          sorted[kTopK - 1], ids, scores, kSimilarityTol);
    }
    const std::vector<float>& q = queries_[query_index];
    const checks::ScoreFn score = [&](int64_t id) {
      if (id < 0 || id >= kVectors || grp_[static_cast<size_t>(id)] >= 8) {
        return std::nan("");
      }
      return Dot(id, q);
    };
    if (kind == kVectorProbe) {
      return checks::CheckTopKValid(score, kTopK, ids, scores, kScoreTol);
    }
    return checks::CheckTopKExact(score, kTopK, exact_kth_[query_index], ids,
                                  scores, kScoreTol);
  }

  Measured Measure(double seconds) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<ClientStats> stats(kClients);
    const uint64_t phase = ++phase_;
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          tdp::Rng rng(config_.seed * 7919 + phase * 131 + c);
          ClientStats& mine = stats[static_cast<size_t>(c)];
          do {  // whole rounds, at least one
            for (int kind : ShuffledRound(kRound, rng)) {
              trace::SetRequest(trace::NextRequestId());
              Request(Kind(kind), rng, mine);
            }
            mine.rounds_s.push_back(mine.round_s);
            mine.round_s = 0;
          } while (Clock::now() < deadline);
          trace::SetRequest(0);
        });
      }
    }
    Measured m;
    for (const ClientStats& s : stats) {
      m.ops += s.ops;
      m.failed += s.failed;
      m.rate += static_cast<double>(ImagesPerRound()) / Median(s.rounds_s);
      m.probe_ms.insert(m.probe_ms.end(), s.probe_ms.begin(),
                        s.probe_ms.end());
      m.exact_ms.insert(m.exact_ms.end(), s.exact_ms.begin(), s.exact_ms.end());
    }
    return m;
  }

  /// Training: kTrainSteps Adam steps, each over kGridsPerStep grids.
  void Train() {
    const std::vector<Tensor> params = train_query_->Parameters();
    tdp::nn::Adam optimizer(params, 0.002);
    std::vector<double> losses;
    for (int step = 0; step < kTrainSteps; ++step) {
      trace::SetRequest(trace::NextRequestId());
      trace::Span span("client.train_step");
      optimizer.ZeroGrad();
      double loss_sum = 0;
      for (int64_t a = 0; a < kGridsPerStep; ++a) {
        const int64_t i = (step * kGridsPerStep + a) % kTrainGrids;
        RegisterGrid(i);
        const Tensor target =
            tdp::Slice(train_.counts, 0, i, 1).Squeeze(0).To(Device::kAccel);
        tdp::StatusOr<tdp::exec::Chunk> chunk = tdp::exec::Chunk();
        {
          trace::Span forward("exec.run_chunk");
          chunk = train_query_->RunChunk();
        }
        TDP_CHECK(chunk.ok()) << chunk.status().ToString();
        const Tensor loss = tdp::MulScalar(
            tdp::nn::MSELoss(chunk->columns[2].data(), target),
            1.0 / kGridsPerStep);
        loss_sum += loss.item<double>();
        trace::Span backward("autograd.backward");
        loss.Backward();
      }
      {
        trace::Span update("nn.optimizer_step");
        optimizer.Step();
      }
      losses.push_back(loss_sum);
    }
    trace::SetRequest(0);
    bool finite = true;
    for (const Tensor& p : params) {
      for (double x : p.To(Device::kCpu).To(tdp::DType::kFloat64).ToVector<double>()) {
        finite = finite && std::isfinite(x);
      }
    }
    log_.Expect(checks::CheckTraining(losses, kLossWindow, finite), "training");
  }

  /// Traced replays of layers the SQL calls hide: the model called
  /// directly on the infer_small batch size, and probe recall against
  /// brute force.
  void Replay() {
    for (int i = 0; i < 100; ++i) {
      const Tensor batch =
          tdp::Slice(images_, 0, (i * kSmallRange) % (images_.size(0) - kSmallRange),
                     kSmallRange)
              .To(Device::kAccel);
      trace::Span span("models.similarity");
      TDP_CHECK(clip_->Similarity(kConcepts[i % kNumConcepts], batch).ok());
    }
    double recall = 0;
    for (size_t q = 0; q < static_cast<size_t>(kQueryPool); ++q) {
      tdp::exec::RunOptions run;
      run.params = {ScalarValue::FromTensor(Tensor::FromVector(queries_[q]))};
      run.vector_search.num_probes = kProbeBudget;
      auto result = session_->Sql(kVectorSql, {}, run);
      TDP_CHECK(result.ok());
      const std::vector<int64_t> got = IntColumn(**result, 0);
      int64_t hits = 0;
      for (const auto& [score, id] : BruteForceTopK(queries_[q])) {
        hits += std::count(got.begin(), got.end(), id);
      }
      recall += static_cast<double>(hits) / kTopK;
    }
    recall_at_k_ = recall / kQueryPool;
  }

  /// Sum of `name` spans under each parent span, one value per parent.
  static std::vector<double> PerParentMs(
      const std::vector<trace::Record>& records, const std::string& name) {
    std::unordered_map<int64_t, double> sums;
    for (const trace::Record& r : records) {
      if (r.name == name) sums[r.parent] += r.micros() / 1e3;
    }
    std::vector<double> out;
    for (const auto& [parent, ms] : sums) out.push_back(ms);
    return out;
  }

  Metrics Layers(double plain_rate, double traced_rate,
                 const tdp::runtime::InferenceScheduler::Stats& s) const {
    const std::vector<trace::Record> records = trace::Collect();
    Metrics l;
    l["exec.run_us.infer_small"] = {
        Median(trace::Durations(records, "exec.run", "infer_small")), "us"};
    l["exec.run_us.infer_scan"] = {
        Median(trace::Durations(records, "exec.run", "infer_scan")), "us"};
    l["index.run_us.vector_probe"] = {
        Median(trace::Durations(records, "index.run", "vector_probe")), "us"};
    l["index.run_us.vector_exact"] = {
        Median(trace::Durations(records, "index.run", "vector_exact")), "us"};
    l["index.recall_at_k"] = {recall_at_k_, "ratio"};
    l["index.build_s"] = {index_build_s_, "s"};
    l["models.similarity_us_per_image"] = {
        Median(trace::Durations(records, "models.similarity")) / kSmallRange,
        "us"};
    l["runtime.coalesced_share"] = {
        s.calls ? static_cast<double>(s.coalesced_requests) / s.calls : 0,
        "ratio"};
    l["runtime.rows_per_forward"] = {
        s.forwards ? static_cast<double>(s.rows) / s.forwards : 0, "rows"};
    l["runtime.prepare_hit_us"] = {
        Median(trace::Durations(records, "runtime.prepare")), "us"};
    l["exec.train_forward_ms"] = {Median(PerParentMs(records, "exec.run_chunk")),
                                  "ms"};
    l["autograd.backward_ms"] = {Median(PerParentMs(records, "autograd.backward")),
                                 "ms"};
    l["client.train_step_ms"] = {
        Median(trace::Durations(records, "client.train_step")) / 1e3, "ms"};
    l["nn.optimizer_step_ms"] = {
        Median(trace::Durations(records, "nn.optimizer_step")) / 1e3, "ms"};
    AddPlanCache(session_->plan_cache_stats(), l);
    AddTraceSummary(records, plain_rate, traced_rate, l);
    return l;
  }

  const RunConfig& config_;
  CheckLog& log_;
  std::unique_ptr<tdp::Session> session_, train_session_;
  std::shared_ptr<tdp::models::SimClip> clip_;
  Tensor images_;
  std::vector<std::vector<double>> corpus_scores_;
  std::vector<double> exact_kth_;
  std::vector<float> emb_;
  std::vector<int64_t> grp_;
  std::vector<std::vector<float>> queries_;
  tdp::data::MnistGridDataset train_;
  std::shared_ptr<tdp::exec::CompiledQuery> train_query_;
  double index_build_s_ = 0, recall_at_k_ = 0;
  uint64_t phase_ = 0;
};

}  // namespace

Outcome RunMl(const RunConfig& config, CheckLog& log) {
  return Ml(config, log).Run();
}

}  // namespace perfbench

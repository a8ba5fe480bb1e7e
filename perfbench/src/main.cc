// vchain_perfbench — end-to-end benchmark of the honest SP served over
// loopback HTTP (SpServer + SpClient), with per-layer attribution.
//
//   vchain_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR
//
// One run: build a seeded fixture chain with the trapdoor prover, reopen it
// honest (ProverMode::kHonest, daemon-default options) behind an SpServer,
// connect light clients, register standing queries, warm the query pool if
// the workload has one, then measure for S seconds and check every answer.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. See perfbench/README.md for the workloads and metrics.
//
// Layers are measured from outside: calls into public functions are timed
// here, and counters the program already exports (ServiceStats, the
// X-Vchain-Trace JSON, the metrics::Registry families) are read back.

#include <cinttypes>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accum/acc1.h"
#include "accum/acc2.h"
#include "api/service.h"
#include "common/metrics.h"
#include "net/sp_client.h"
#include "net/sp_server.h"
#include "store/block_source.h"
#include "store/block_store.h"
#include "util.h"
#include "workload/datasets.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace std::chrono_literals;
using vchain::api::EngineKind;
using vchain::api::Service;
using vchain::api::ServiceOptions;
using vchain::chain::LightClient;
using vchain::chain::Object;
using vchain::core::Query;
using vchain::net::SpClient;
using vchain::net::SpServer;

// --- workloads ----------------------------------------------------------------

struct Spec {
  const char* name;
  EngineKind engine;
  size_t base_blocks;  ///< fixture chain length
  size_t window;       ///< blocks per query window
  size_t clients;      ///< closed-loop query clients
  size_t pool;         ///< 0 = every query distinct; else pool proved at setup
  bool mine_beside;    ///< miner runs beside the clients for the whole phase
};

// Pool windows of warm-scan are disjoint 8-block slots of a 384-block chain:
// 48 of them cover 384 blocks, more than the 256-block decoded cache.
constexpr Spec kSpecs[] = {
    {"cold-prove", EngineKind::kAcc2, 64, 2, 3, 0, false},
    {"warm-scan", EngineKind::kAcc2, 384, 8, 3, 48, false},
    {"mine-subscribe", EngineKind::kAcc2, 64, 4, 1, 16, true},
    {"cold-acc1", EngineKind::kAcc1, 32, 4, 3, 0, false},
};

constexpr size_t kObjectsPerBlock = 8;
constexpr size_t kStandingQueries = 4;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kProbeBlocks = 8;  ///< traced mining probe after a query phase
constexpr auto kMineCadence = 800ms;
constexpr uint64_t kSetupSeed = 42;  ///< trusted-setup secret (daemon default)

// --- shared run state -----------------------------------------------------------

/// Everything the benchmark generated from --seed: the chain's blocks
/// (fixture prefix, then the blocks the miner appends), the standing queries,
/// and a locked query stream, so the same seed yields the same inputs
/// whatever the thread interleaving.
struct Inputs {
  vchain::workload::DatasetProfile profile;
  std::vector<std::vector<Object>> blocks;
  std::vector<uint64_t> block_ts;
  std::vector<Query> standing;

  std::mutex mu;
  vchain::workload::DatasetGenerator query_gen;
  vchain::Rng window_rng;

  Inputs(uint64_t seed, size_t total_blocks)
      : profile(vchain::workload::Profile4SQ(kObjectsPerBlock)),
        query_gen(profile, seed),
        window_rng(seed ^ 0x57A27D0B5ULL) {
    vchain::workload::DatasetGenerator gen(profile, seed);
    for (size_t h = 0; h < total_blocks; ++h) {
      blocks.push_back(gen.NextBlock());
      block_ts.push_back(blocks.back().front().timestamp);
    }
    for (size_t s = 0; s < kStandingQueries; ++s) {
      standing.push_back(query_gen.MakeDefaultQuery(
          block_ts.front(), std::numeric_limits<uint64_t>::max() / 2));
    }
  }

  /// A §9-default query (10% selectivity, 3-keyword clause) over heights
  /// [lo, lo + window).
  Query QueryOver(size_t lo, size_t window) {
    return query_gen.MakeDefaultQuery(block_ts[lo], block_ts[lo + window - 1]);
  }

  /// Next distinct query of a cold stream: a seeded window inside the
  /// fixture chain.
  Query NextCold(const Spec& spec) {
    std::lock_guard<std::mutex> lock(mu);
    const size_t lo = window_rng.Below(spec.base_blocks - spec.window + 1);
    return QueryOver(lo, spec.window);
  }
};

ServiceOptions BaseOptions(const Spec& spec, const Inputs& in) {
  ServiceOptions o;  // daemon defaults otherwise
  o.engine = spec.engine;
  o.config.mode = vchain::core::IndexMode::kBoth;
  o.config.schema = in.profile.schema;
  o.prover_mode = vchain::accum::ProverMode::kHonest;
  return o;
}

struct Client {
  std::unique_ptr<SpClient> sp;
  std::unique_ptr<LightClient> light;
};

/// One honest deployment: the reopened service, its server, the query
/// clients, and the subscriber with its standing queries.
struct Deployment {
  std::string dir;
  std::shared_ptr<vchain::accum::KeyOracle> oracle;
  std::unique_ptr<Service> svc;
  std::unique_ptr<SpServer> server;
  ServiceOptions client_opts;
  std::vector<Client> clients;
  Client subscriber;
  std::vector<SpClient::SubscriptionHandle> subs;  ///< Inputs::standing order

  ~Deployment() {
    server.reset();
    svc.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

[[noreturn]] void Die(const std::string& what, const vchain::Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

/// A light user: its own connection, light client and key cache. It holds
/// the public parameters only — an oracle object of its own from the same
/// trusted-setup seed, so no key memo is shared with the SP or another user.
Client Connect(const Deployment& d) {
  SpClient::Options copts;
  copts.port = d.server->port();
  copts.verify = d.client_opts;
  copts.verify.oracle = vchain::accum::KeyOracle::Create(kSetupSeed);
  auto sp = SpClient::Connect(copts);
  if (!sp.ok()) Die("client connect", sp.status());
  Client c;
  c.sp = sp.TakeValue();
  c.light = std::make_unique<LightClient>(c.sp->NewLightClient());
  vchain::Status st = c.sp->SyncHeaders(c.light.get());
  if (!st.ok()) Die("header sync", st);
  return c;
}

/// Trapdoor fixture build, honest reopen, server start, client header sync
/// and subscription: the part of setup that is repeated and median-ed.
std::unique_ptr<Deployment> BringUp(const Spec& spec, const Inputs& in,
                                    const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  std::filesystem::remove_all(dir);
  d->oracle = vchain::accum::KeyOracle::Create(kSetupSeed);
  ServiceOptions opts = BaseOptions(spec, in);
  opts.oracle = d->oracle;
  opts.store_dir = dir;
  {
    ServiceOptions build = opts;
    build.prover_mode = vchain::accum::ProverMode::kTrustedFast;
    auto fixture = Service::Open(build);
    if (!fixture.ok()) Die("fixture open", fixture.status());
    for (size_t h = 0; h < spec.base_blocks; ++h) {
      vchain::Status st =
          fixture.value()->Append(in.blocks[h], in.block_ts[h]);
      if (!st.ok()) Die("fixture append", st);
    }
    vchain::Status st = fixture.value()->Sync();
    if (!st.ok()) Die("fixture sync", st);
  }
  auto svc = Service::Open(opts);
  if (!svc.ok()) Die("honest reopen", svc.status());
  d->svc = svc.TakeValue();

  SpServer::Options sopts;  // vchain_spd defaults: 4 workers, 64 conns
  auto server = SpServer::Start(d->svc.get(), sopts);
  if (!server.ok()) Die("server start", server.status());
  d->server = server.TakeValue();

  d->client_opts = BaseOptions(spec, in);
  for (size_t c = 0; c < spec.clients; ++c) d->clients.push_back(Connect(*d));
  d->subscriber = Connect(*d);
  for (const Query& q : in.standing) {
    auto h = d->subscriber.sp->Subscribe(q);
    if (!h.ok()) Die("subscribe", h.status());
    d->subs.push_back(std::move(h.value()));
  }
  return d;
}

// --- measurement records ------------------------------------------------------

struct TraceRow {
  double total = 0, setup = 0, window_lookup = 0, match_walk = 0,
         aggregate = 0, prove = 0, serialize = 0, msm = 0;
  double blocks_walked = 0, skips = 0, nodes = 0, proofs = 0, hits = 0,
         misses = 0;
};

bool ParseTrace(const std::string& json, TraceRow* r) {
  bool ok = TraceField(json, "total_ns", &r->total);
  ok = ok && TraceField(json, "setup_ns", &r->setup);
  ok = ok && TraceField(json, "window_lookup_ns", &r->window_lookup);
  ok = ok && TraceField(json, "match_walk_ns", &r->match_walk);
  ok = ok && TraceField(json, "aggregate_ns", &r->aggregate);
  ok = ok && TraceField(json, "prove_ns", &r->prove);
  ok = ok && TraceField(json, "serialize_ns", &r->serialize);
  ok = ok && TraceField(json, "msm_ns", &r->msm);
  ok = ok && TraceField(json, "blocks_walked", &r->blocks_walked);
  ok = ok && TraceField(json, "skips_taken", &r->skips);
  ok = ok && TraceField(json, "nodes_visited", &r->nodes);
  ok = ok && TraceField(json, "proofs_computed", &r->proofs);
  ok = ok && TraceField(json, "proof_cache_hits", &r->hits);
  ok = ok && TraceField(json, "proof_cache_misses", &r->misses);
  return ok;
}

struct OpRecord {
  double op_ms = 0;  ///< SyncHeaders + Query, until the answer is decoded
  double sync_ms = 0;
  double query_ms = 0;
  double verify_ms = 0;
  double decode_ms = 0;  ///< Service::DecodeResult on the same bytes
  size_t response_bytes = 0;
  size_t vo_bytes = 0;
  bool traced = false;
  TraceRow trace;
};

struct Sample {
  Query q;
  vchain::Bytes bytes;
  std::vector<uint64_t> ids;
};

/// What every thread of a phase reports back, merged under a lock.
struct Tally {
  std::mutex mu;
  std::vector<OpRecord> ops;
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t false_positives = 0;  ///< mapped-collision extras, filtered
  bool wrong = false;
  std::vector<std::string> errors;

  void Fail(const std::string& what, bool is_wrong) {
    std::lock_guard<std::mutex> lock(mu);
    ++failed;
    wrong = wrong || is_wrong;
    if (errors.size() < 8) errors.push_back(what);
  }
};

std::vector<uint64_t> SortedIds(const std::vector<Object>& objs) {
  std::vector<uint64_t> ids;
  for (const Object& o : objs) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Matching is exact in the engine's mapped element space: a collision in
/// acc2's bounded universe can add a verifiable object that fails the query
/// in plaintext, and the light user drops it with LocalMatch
/// (accum/element.h). After that filter the answer must equal the plaintext
/// scan: every true match returned, and every extra a real object of the
/// scanned blocks. Extras are counted, not failed.
void CheckAgainstPlaintext(const std::vector<Object>& scanned,
                           const Query& q,
                           const vchain::chain::NumericSchema& schema,
                           const std::vector<uint64_t>& got, const char* what,
                           Tally* tally) {
  std::vector<uint64_t> want;
  const std::vector<uint64_t> all = SortedIds(scanned);
  for (const Object& o : scanned) {
    if (vchain::core::LocalMatch(o, q, schema)) want.push_back(o.id);
  }
  std::sort(want.begin(), want.end());
  std::vector<uint64_t> missing, extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  bool phantom = false;
  for (uint64_t id : extra) {
    phantom = phantom || !std::binary_search(all.begin(), all.end(), id);
  }
  if (!missing.empty() || phantom) {
    tally->Fail(std::string(what) + " disagrees with a plaintext scan", true);
  }
  std::lock_guard<std::mutex> lock(tally->mu);
  tally->false_positives += extra.size();
}

// --- closed-loop query clients ---------------------------------------------------

void RunClient(const Spec& spec, Inputs* in, Deployment* d, size_t index,
               const std::vector<Query>& pool, Clock::time_point deadline,
               bool trace, uint64_t seed, Tally* tally) {
  Client& c = d->clients[index];
  vchain::Rng rng(seed * 0x9E3779B97F4A7C15ULL + index + 1);
  auto decoder = Service::Open(c.sp->verify_options());  // verifier role
  if (!decoder.ok()) Die("decoder open", decoder.status());
  for (uint64_t n = 0; Clock::now() < deadline; ++n) {
    const Query q = pool.empty() ? in->NextCold(spec)
                                 : pool[rng.Below(pool.size())];
    OpRecord rec;
    // In the traced run every other operation opts into the server trace,
    // so the untraced half measures the tracing overhead beside it.
    rec.traced = trace && n % 2 == 0;
    std::string trace_json;
    const auto t0 = Clock::now();
    vchain::Status st = c.sp->SyncHeaders(c.light.get());
    const auto t1 = Clock::now();
    {
      std::lock_guard<std::mutex> lock(tally->mu);
      ++tally->attempted;
    }
    if (!st.ok()) {
      tally->Fail("header sync: " + st.ToString(), false);
      continue;
    }
    auto res = c.sp->Query(q, rec.traced ? &trace_json : nullptr);
    const auto t2 = Clock::now();
    if (!res.ok()) {
      tally->Fail("query: " + res.status().ToString(), false);
      continue;
    }
    vchain::Status v = c.sp->Verify(q, res.value(), *c.light);
    const auto t3 = Clock::now();
    if (!v.ok()) {
      tally->Fail("verify: " + v.ToString(), true);
      continue;
    }
    rec.sync_ms = MsBetween(t0, t1);
    rec.query_ms = MsBetween(t1, t2);
    rec.op_ms = MsBetween(t0, t2);
    rec.verify_ms = MsBetween(t2, t3);
    rec.response_bytes = res.value().response_bytes.size();
    rec.vo_bytes = res.value().vo_bytes;
    if (rec.traced) {
      if (!ParseTrace(trace_json, &rec.trace)) {
        tally->Fail("missing X-Vchain-Trace fields", false);
        continue;
      }
      const auto d0 = Clock::now();
      auto decoded = decoder.value()->DecodeResult(res.value().response_bytes);
      rec.decode_ms = MsBetween(d0, Clock::now());
      if (!decoded.ok()) {
        tally->Fail("decode: " + decoded.status().ToString(), true);
        continue;
      }
    }
    std::lock_guard<std::mutex> lock(tally->mu);
    tally->ops.push_back(rec);
    // Seeded sample for the plaintext and in-process byte checks.
    if (n == 0 || rng.Below(8) == 0) {
      tally->samples.push_back(
          {q, res.value().response_bytes, SortedIds(res.value().objects)});
    }
  }
}

// --- miner and subscriber -----------------------------------------------------------

struct MineRecord {
  std::vector<double> append_ms;      ///< due time -> Append returns
  std::vector<double> api_append_ms;  ///< Append call -> return
  std::vector<double> notify_ms;      ///< due time -> last verified event
  std::vector<double> poll_ms;        ///< polls that found events waiting
  std::vector<double> notify_verify_ms;
  size_t blocks = 0;
  double late_ms_max = 0;  ///< how late the open-loop generator ran
};

struct HistSnap {
  double sum = 0;
  uint64_t count = 0;
};

HistSnap Snap(const char* family) {
  auto* h = vchain::metrics::Registry::Default().GetLatencyHistogram(family,
                                                                     "");
  return {h->Sum(), h->Count()};
}

double CounterValue(const char* family) {
  return static_cast<double>(
      vchain::metrics::Registry::Default().GetCounter(family, "")->Value());
}

/// Open-loop miner (one block per cadence, timed from its due time) and one
/// poller holding every standing query, which verifies each notification
/// against its own light client and the plaintext block contents.
void RunMiner(Inputs* in, Deployment* d, size_t max_blocks,
              Clock::time_point deadline, bool trace, Tally* tally,
              MineRecord* out) {
  const size_t first = d->svc->NumBlocks();
  // The subscriber may have idled past the server's keep-alive timeout;
  // reconnect before the first block is due.
  for (auto& h : d->subs) (void)h.Poll(d->subscriber.light.get(), 0);
  std::mutex mu;
  std::vector<Clock::time_point> due;
  bool miner_done = false;

  std::thread poller([&] {
    std::map<uint64_t, std::pair<size_t, Clock::time_point>> seen;
    LightClient& light = *d->subscriber.light;
    const auto give_up_after = 10s;
    Clock::time_point last_progress = Clock::now();
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        size_t complete = 0;
        for (const auto& [h, v] : seen) complete += v.first == d->subs.size();
        if (miner_done && complete == due.size()) break;
      }
      if (Clock::now() - last_progress > give_up_after) {
        tally->Fail("notifications missing after the last block", false);
        break;
      }
      for (size_t i = 0; i < d->subs.size(); ++i) {
        const auto t0 = Clock::now();
        auto evs = d->subs[i].Poll(&light, i == 0 ? 250 : 0);
        const auto t1 = Clock::now();
        if (!evs.ok()) {
          tally->Fail("poll: " + evs.status().ToString(), true);
          continue;
        }
        if (evs.value().empty()) continue;
        last_progress = t1;
        if (i > 0) out->poll_ms.push_back(MsBetween(t0, t1));
        for (const auto& ev : evs.value()) {
          if (ev.height < first || ev.height >= in->blocks.size()) {
            tally->Fail("notification for an unexpected height", true);
            continue;
          }
          CheckAgainstPlaintext(in->blocks[ev.height], in->standing[i],
                                in->profile.schema, SortedIds(ev.objects),
                                "notification", tally);
          if (trace) {
            const auto v0 = Clock::now();
            vchain::Status st = d->svc->VerifyNotification(
                in->standing[i], ev, light);
            out->notify_verify_ms.push_back(MsBetween(v0, Clock::now()));
            if (!st.ok()) tally->Fail("notification re-verify", true);
          }
          auto& slot = seen[ev.height];
          ++slot.first;
          slot.second = t1;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [h, v] : seen) {
      const size_t k = h - first;
      if (v.first == d->subs.size() && k < due.size()) {
        out->notify_ms.push_back(MsBetween(due[k], v.second));
      }
    }
  });

  const auto start = Clock::now();
  for (size_t k = 0; k < max_blocks; ++k) {
    const auto when = start + k * kMineCadence;
    if (when >= deadline || first + k >= in->blocks.size()) break;
    std::this_thread::sleep_until(when);
    {
      std::lock_guard<std::mutex> lock(mu);
      due.push_back(when);
    }
    const auto t0 = Clock::now();
    out->late_ms_max = std::max(out->late_ms_max, MsBetween(when, t0));
    vchain::Status st =
        d->svc->Append(in->blocks[first + k], in->block_ts[first + k]);
    const auto t1 = Clock::now();
    {
      std::lock_guard<std::mutex> lock(tally->mu);
      tally->attempted += 1 + d->subs.size();
    }
    if (!st.ok()) {
      tally->Fail("append: " + st.ToString(), false);
      break;
    }
    out->append_ms.push_back(MsBetween(when, t1));
    out->api_append_ms.push_back(MsBetween(t0, t1));
    ++out->blocks;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    miner_done = true;
  }
  poller.join();
  const size_t missing = out->blocks - out->notify_ms.size();
  for (size_t i = 0; i < missing; ++i) {
    tally->Fail("block without a verified notification for every query",
                false);
  }
}

// --- output ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, const Tally& t,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                t.attempted, t.failed);
  out += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->work_dir.empty() &&
         a->seconds > 0;
}

/// Store layer timed directly: BlockStore::ReadRecord, and
/// StoreBlockSource::TryBlockAt with a one-block cache (so every call reads
/// and decodes), over the same seeded heights of this run's synced store.
struct StoreTimings {
  double read_us = 0;
  double decode_us = 0;  ///< TryBlockAt minus the read
};

StoreTimings ProbeStore(const Spec& spec, Deployment* d, uint64_t seed) {
  vchain::Status st = d->svc->Sync();
  if (!st.ok()) Die("sync", st);
  auto store = vchain::store::BlockStore::Open(d->dir);
  if (!store.ok()) Die("store open", store.status());
  vchain::Rng rng(seed ^ 0x5704E5EEDULL);
  std::vector<uint64_t> heights;
  const uint64_t nblocks = store.value()->NumBlocks();
  for (int i = 0; i < 48; ++i) {
    uint64_t h = rng.Below(nblocks);
    if (!heights.empty() && h == heights.back()) h = (h + 1) % nblocks;
    heights.push_back(h);
  }
  std::vector<double> reads, sources;
  for (uint64_t h : heights) {
    const auto t0 = Clock::now();
    auto rec = store.value()->ReadRecord(h);
    reads.push_back(MsBetween(t0, Clock::now()) * 1e3);
    if (!rec.ok()) Die("read record", rec.status());
  }
  auto time_source = [&](auto engine) {
    vchain::store::StoreBlockSource<decltype(engine)> src(
        engine, store.value().get(), 1);
    for (uint64_t h : heights) {
      const auto t0 = Clock::now();
      auto b = src.TryBlockAt(h);
      sources.push_back(MsBetween(t0, Clock::now()) * 1e3);
      if (!b.ok()) Die("decode block", b.status());
    }
  };
  if (spec.engine == EngineKind::kAcc1) {
    time_source(vchain::accum::Acc1Engine(d->oracle));
  } else {
    time_source(vchain::accum::Acc2Engine(d->oracle));
  }
  return {Mean(reads), std::max(0.0, Mean(sources) - Mean(reads))};
}

/// Oracle unit cost behind acc2 proving: KeyOracle::G1PowerOfUncached over
/// seeded exponents of the public-key range, mean microseconds.
double OraclePowerUs(vchain::accum::KeyOracle* oracle, uint64_t seed) {
  vchain::Rng rng(seed ^ 0x0AC1E5EEDULL);
  const uint64_t top = 2 * oracle->params().UniverseSize() - 2;
  std::vector<double> us;
  for (int i = 0; i < 64; ++i) {
    const uint64_t j = rng.Below(top + 1);
    const auto t0 = Clock::now();
    volatile bool inf = oracle->G1PowerOfUncached(j).infinity;
    (void)inf;
    us.push_back(MsBetween(t0, Clock::now()) * 1e3);
  }
  return Mean(us);
}

/// The warm pool, empty for cold workloads. warm-scan takes disjoint window
/// slots in seeded order, so its working set spans `pool * window` blocks;
/// mine-subscribe takes seeded windows of its small chain.
std::vector<Query> MakePool(const Spec& spec, Inputs* in) {
  std::vector<Query> pool;
  if (spec.mine_beside) {
    for (size_t i = 0; i < spec.pool; ++i) pool.push_back(in->NextCold(spec));
    return pool;
  }
  std::vector<size_t> slots(spec.base_blocks / spec.window);
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  for (size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[in->window_rng.Below(i)]);
  }
  for (size_t i = 0; i < spec.pool; ++i) {
    pool.push_back(in->QueryOver(slots[i] * spec.window, spec.window));
  }
  return pool;
}

int Run(const Spec& spec, const Args& args) {
  const Calibration calib = Calibrate(args.seed);
  const double cadence_s = std::chrono::duration<double>(kMineCadence).count();
  const size_t mined_max =
      spec.mine_beside ? static_cast<size_t>(args.seconds / cadence_s) + 2
                       : kProbeBlocks;
  Inputs in(args.seed, spec.base_blocks + 1 + mined_max);
  Tally tally;

  // --- setup: bring-up repeated, the last one kept; then the pool warm-up.
  std::vector<double> bringup_s;
  std::unique_ptr<Deployment> d;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    d.reset();
    const auto t0 = Clock::now();
    d = BringUp(spec, in, args.work_dir + "/store-" + std::to_string(r));
    bringup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  if (d->svc->options().prover_mode != vchain::accum::ProverMode::kHonest) {
    std::fprintf(stderr, "perfbench: timed service is not kHonest\n");
    return 2;
  }
  const std::vector<Query> pool = MakePool(spec, &in);
  double warm_s = 0;
  if (!pool.empty()) {
    const auto t0 = Clock::now();
    auto warmed = d->svc->QueryBatch(pool);
    for (const auto& r : warmed) {
      if (!r.ok()) Die("pool warm-up", r.status());
    }
    // Each light user verifies the pool once, so its key cache is warm too.
    std::vector<std::thread> verifiers;
    for (Client& c : d->clients) {
      verifiers.emplace_back([&pool, &warmed, &c] {
        for (size_t i = 0; i < pool.size(); ++i) {
          vchain::Status st =
              c.sp->Verify(pool[i], warmed[i].value(), *c.light);
          if (!st.ok()) Die("pool verify", st);
        }
      });
    }
    for (auto& t : verifiers) t.join();
    warm_s = MsBetween(t0, Clock::now()) / 1e3;
  }
  // Runs that mine: mine-subscribe always, every workload when traced (a
  // probe after the query phase gives the append and notification layers a
  // number on every workload). The first append pays lazy set-up (oracle
  // powers for the miner's digests, the subscriber's first verifications),
  // so one block is mined and notified before timing, charged to setup.
  const bool mines = spec.mine_beside || args.trace;
  if (mines) {
    const auto t0 = Clock::now();
    Tally scratch;
    MineRecord first;
    RunMiner(&in, d.get(), 1, Clock::time_point::max(), false, &scratch,
             &first);
    if (scratch.failed > 0 || first.blocks != 1) {
      std::fprintf(stderr, "perfbench: set-up block failed: %s\n",
                   scratch.errors.empty() ? "" : scratch.errors[0].c_str());
      return 2;
    }
    warm_s += MsBetween(t0, Clock::now()) / 1e3;
  }
  const double setup_s = Quantile(bringup_s, 0.5) + warm_s;

  // Touch every connection so the phase does not start on sockets the
  // server's idle timeout closed during the warm-up.
  for (Client& c : d->clients) (void)c.sp->SyncHeaders(c.light.get());

  // --- measured phase.
  const vchain::api::ServiceStats before = d->svc->Stats();
  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  MineRecord mine;
  HistSnap store0{}, drain0{}, match0{};
  double notified0 = 0;
  auto snap_mine = [&](HistSnap* s, HistSnap* dr, HistSnap* m, double* n) {
    *s = Snap("vchain_store_append_seconds");
    *dr = Snap("vchain_service_subscription_drain_seconds");
    *m = Snap("vchain_sub_match_seconds");
    *n = CounterValue("vchain_sub_notified_total");
  };
  snap_mine(&store0, &drain0, &match0, &notified0);
  std::thread miner;
  if (spec.mine_beside) {
    miner = std::thread([&] {
      RunMiner(&in, d.get(), mined_max, deadline, args.trace, &tally, &mine);
    });
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      RunClient(spec, &in, d.get(), c, pool, deadline, args.trace, args.seed,
                &tally);
    });
  }
  for (auto& t : threads) t.join();
  const auto phase_end = Clock::now();
  const double cpu1 = ProcessCpuSeconds();
  const vchain::api::ServiceStats after = d->svc->Stats();
  if (spec.mine_beside) {
    miner.join();
  } else if (mines) {
    // Mining probe: open-loop blocks with no query in flight.
    RunMiner(&in, d.get(), kProbeBlocks, Clock::time_point::max(),
             args.trace, &tally, &mine);
  }
  HistSnap store1{}, drain1{}, match1{};
  double notified1 = 0;
  snap_mine(&store1, &drain1, &match1, &notified1);

  // --- correctness: plaintext scan and in-process bytes for the sample.
  for (const Sample& s : tally.samples) {
    std::vector<Object> scanned;
    for (size_t h = 0; h < in.blocks.size(); ++h) {
      if (in.block_ts[h] >= s.q.time_start && in.block_ts[h] <= s.q.time_end) {
        scanned.insert(scanned.end(), in.blocks[h].begin(), in.blocks[h].end());
      }
    }
    CheckAgainstPlaintext(scanned, s.q, in.profile.schema, s.ids, "answer",
                          &tally);
    auto local = d->svc->Query(s.q);
    if (!local.ok() || local.value().response_bytes != s.bytes) {
      tally.Fail("wire bytes differ from in-process Service::Query", true);
    }
  }

  // --- guards.
  bool guards_ok = true;
  auto guard = [&](bool ok, const char* what, double value) {
    if (!ok) {
      std::fprintf(stderr, "perfbench: guard failed: %s (%.4f)\n", what,
                   value);
      guards_ok = false;
    }
  };
  const double pc_hits =
      static_cast<double>(after.proof_cache.hits - before.proof_cache.hits);
  const double pc_miss = static_cast<double>(after.proof_cache.misses -
                                             before.proof_cache.misses);
  const double pc_ratio =
      pc_hits + pc_miss > 0 ? pc_hits / (pc_hits + pc_miss) : 1.0;
  const double bc_hits =
      static_cast<double>(after.block_cache.hits - before.block_cache.hits);
  const double bc_miss = static_cast<double>(after.block_cache.misses -
                                             before.block_cache.misses);
  const double bc_ratio =
      bc_hits + bc_miss > 0 ? bc_hits / (bc_hits + bc_miss) : 1.0;
  if (spec.pool == 0) {
    // Distinct queries still share range clauses (the 4SQ generator clamps
    // ranges at the domain edges), so reuse grows with run length: acc1
    // reads ~0.04 after 90 queries and ~0.11 after 450.
    guard(pc_ratio <= 0.20, "cold workload proof-cache hit ratio > 0.20",
          pc_ratio);
  } else {
    guard(pc_ratio >= 0.99, "warm pool proof-cache hit ratio < 0.99",
          pc_ratio);
  }
  if (!spec.mine_beside && spec.pool > 0) {
    guard(bc_ratio < 0.99, "warm-scan working set fits the block cache",
          bc_ratio);
  }

  // --- end-to-end numbers.
  std::vector<double> op_ms, verify_ms, op_traced, op_untraced;
  double vo_sum = 0;
  for (const OpRecord& r : tally.ops) {
    op_ms.push_back(r.op_ms);
    verify_ms.push_back(r.verify_ms);
    vo_sum += static_cast<double>(r.vo_bytes);
    (r.traced ? op_traced : op_untraced).push_back(r.op_ms);
  }
  const double phase_s = MsBetween(start, phase_end) / 1e3;
  const double answers = static_cast<double>(tally.ops.size());

  std::printf(
      "perfbench-info {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"fingerprint\": {\"cpu\": \"%s\", \"nproc\": %ld, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}, \"calib.g1_mul_us\": "
      "%.6g, \"calib.pairing_ms\": %.6g, \"answers\": %zu, \"blocks_mined\": "
      "%zu, \"notified_blocks\": %zu, \"generator_late_ms_max\": %.3f, "
      "\"proof_cache_hit_ratio\": %.4f, \"block_cache_hit_ratio\": %.4f, "
      "\"bringup_s\": [%s], \"warmup_s\": %.4f, "
      "\"false_positives\": %" PRIu64 "}\n",
      spec.name, args.seed, args.trace ? 1 : 0,
      JsonEscape(CpuModel()).c_str(), NumCpus(), JsonEscape(Compiler()).c_str(),
      PERFBENCH_BUILD_TYPE, calib.g1_mul_us, calib.pairing_ms,
      tally.ops.size(), mine.blocks, mine.notify_ms.size(), mine.late_ms_max,
      pc_ratio, bc_ratio, JoinNumbers(bringup_s).c_str(), warm_s,
      tally.false_positives);

  std::vector<Metric> m;
  bool reconciled = true;
  if (!args.trace) {
    m = {
        {"query_p50_ms", Quantile(op_ms, 0.5), "ms"},
        {"qps", phase_s > 0 ? answers / phase_s : 0, "1/s"},
        {"vo_kb", answers > 0 ? vo_sum / answers / 1024 : 0, "KiB"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
  } else {
    // Per-layer means over the traced operations.
    std::vector<double> wire, resp_kb, sync, total, unattributed, decode;
    std::vector<double> st_setup, st_lookup, st_walk, st_agg, st_prove,
        st_ser, msm, agg_prove, walked, skips, nodes, proofs;
    double hits = 0, misses = 0, prove_time = 0, proof_count = 0;
    double client_query = 0;
    for (const OpRecord& r : tally.ops) {
      if (!r.traced) continue;
      const TraceRow& t = r.trace;
      const double stage_sum = t.setup + t.window_lookup + t.match_walk +
                                t.aggregate + t.prove + t.serialize;
      wire.push_back(r.query_ms - t.total / 1e6);
      resp_kb.push_back(static_cast<double>(r.response_bytes) / 1024);
      sync.push_back(r.sync_ms);
      total.push_back(t.total / 1e6);
      unattributed.push_back(std::max(0.0, t.total - stage_sum) / 1e6);
      decode.push_back(r.decode_ms);
      st_setup.push_back(t.setup / 1e6);
      st_lookup.push_back(t.window_lookup / 1e6);
      st_walk.push_back(t.match_walk / 1e6);
      st_agg.push_back(t.aggregate / 1e6);
      st_prove.push_back(t.prove / 1e6);
      st_ser.push_back(t.serialize / 1e6);
      msm.push_back(t.msm / 1e6);
      agg_prove.push_back(std::max(0.0, t.aggregate - t.msm) / 1e6);
      walked.push_back(t.blocks_walked);
      skips.push_back(t.skips);
      nodes.push_back(t.nodes);
      proofs.push_back(t.proofs);
      hits += t.hits;
      misses += t.misses;
      prove_time += (std::max(0.0, t.aggregate - t.msm) + t.prove) / 1e6;
      proof_count += t.proofs;
      client_query += r.query_ms;
    }
    const double n_traced = static_cast<double>(total.size());
    const double api_query = Mean(total);
    const double stage_means = Mean(st_setup) + Mean(st_lookup) +
                               Mean(st_walk) + Mean(st_agg) + Mean(st_prove) +
                               Mean(st_ser);
    const double blocks = static_cast<double>(mine.blocks);
    const double api_append = Mean(mine.api_append_ms);
    const double store_append =
        store1.count > store0.count
            ? (store1.sum - store0.sum) * 1e3 /
                  static_cast<double>(store1.count - store0.count)
            : 0;
    const double dispatch =
        blocks > 0 ? (drain1.sum - drain0.sum) * 1e3 / blocks : 0;
    const double match =
        blocks > 0 ? (match1.sum - match0.sum) * 1e3 / blocks : 0;
    const double cpu_s = cpu1 - cpu0;

    const StoreTimings store = ProbeStore(spec, d.get(), args.seed);
    const double power_us = OraclePowerUs(d->oracle.get(), args.seed);
    const double p50_traced = Quantile(op_traced, 0.5);
    const double p50_untraced = Quantile(op_untraced, 0.5);

    m = {
        {"query_p90_ms", Quantile(op_ms, 0.9), "ms"},
        {"verify_p50_ms", Quantile(verify_ms, 0.5), "ms"},
        {"verify_p90_ms", Quantile(verify_ms, 0.9), "ms"},
        {"append_p50_ms", Quantile(mine.append_ms, 0.5), "ms"},
        {"notify_p50_ms", Quantile(mine.notify_ms, 0.5), "ms"},
        {"net.wire_ms", Mean(wire), "ms"},
        {"net.response_kb", Mean(resp_kb), "KiB"},
        {"net.poll_ms", Mean(mine.poll_ms), "ms"},
        {"chain.header_sync_ms", Mean(sync), "ms"},
        {"chain.mine_ms", std::max(0.0, api_append - dispatch - store_append),
         "ms"},
        {"api.query_ms", api_query, "ms"},
        {"api.unattributed_ms", Mean(unattributed), "ms"},
        {"api.append_ms", api_append, "ms"},
        {"api.decode_ms", Mean(decode), "ms"},
        {"core.setup_ms", Mean(st_setup), "ms"},
        {"core.window_lookup_ms", Mean(st_lookup), "ms"},
        {"core.match_walk_ms", Mean(st_walk), "ms"},
        {"core.aggregate_ms", Mean(st_agg), "ms"},
        {"core.aggregate_prove_ms", Mean(agg_prove), "ms"},
        {"core.prove_ms", Mean(st_prove), "ms"},
        {"core.serialize_ms", Mean(st_ser), "ms"},
        {"core.blocks_walked", Mean(walked), "count"},
        {"core.skips_taken", Mean(skips), "count"},
        {"core.nodes_visited", Mean(nodes), "count"},
        {"core.proofs_computed", Mean(proofs), "count"},
        {"core.proof_cache_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"},
        {"accum.ms_per_proof", proof_count > 0 ? prove_time / proof_count : 0,
         "ms"},
        {"accum.oracle_power_us", power_us, "us"},
        {"crypto.msm_ms", Mean(msm), "ms"},
        {"calib.g1_mul_us", calib.g1_mul_us, "us"},
        {"calib.pairing_ms", calib.pairing_ms, "ms"},
        {"store.block_cache_hit_ratio", bc_ratio, "ratio"},
        {"store.block_reads_per_query",
         after.queries_served > before.queries_served
             ? bc_miss / static_cast<double>(after.queries_served -
                                             before.queries_served)
             : 0,
         "count"},
        {"store.block_read_us", store.read_us, "us"},
        {"store.block_decode_us", store.decode_us, "us"},
        {"store.append_ms", store_append, "ms"},
        {"sub.dispatch_ms", dispatch, "ms"},
        {"sub.match_ms", match, "ms"},
        {"sub.notifications_per_block",
         blocks > 0 ? (notified1 - notified0) / blocks : 0, "count"},
        {"sub.notify_verify_ms", Mean(mine.notify_verify_ms), "ms"},
        {"proc.cpu_util",
         phase_s > 0 ? cpu_s / (phase_s * static_cast<double>(NumCpus())) : 0,
         "ratio"},
        {"proc.cpu_ms_per_answer", answers > 0 ? cpu_s * 1e3 / answers : 0,
         "ms"},
        {"trace_overhead_pct",
         p50_untraced > 0 ? (p50_traced - p50_untraced) / p50_untraced * 100
                          : 0,
         "%"},
    };

    // Reconciliation: the layers must add up to what the client saw.
    auto within = [](double part, double whole) {
      return whole > 0 && std::abs(part - whole) <= 0.10 * whole;
    };
    auto check = [&](bool ok, const char* what, double a, double b) {
      std::fprintf(stderr, "perfbench: reconcile %-44s %10.4f vs %10.4f %s\n",
                   what, a, b, ok ? "ok" : "FAILED");
      reconciled = reconciled && ok;
    };
    if (n_traced == 0) {
      std::fprintf(stderr, "perfbench: no traced operation\n");
      reconciled = false;
    } else {
      check(within(stage_means + Mean(unattributed), api_query),
            "core stages + api.unattributed ~ api.query",
            stage_means + Mean(unattributed), api_query);
      check(within(api_query + Mean(wire), client_query / n_traced),
            "api.query + net.wire ~ client Query",
            api_query + Mean(wire), client_query / n_traced);
      if (std::strcmp(spec.name, "cold-prove") == 0) {
        const double share = (Mean(agg_prove) + Mean(st_prove)) / api_query;
        check(share >= 0.95, "cold-prove: proving share of api.query >= .95",
              share, 0.95);
      }
    }
  }

  const bool correct = !tally.wrong && guards_ok && reconciled &&
                       !tally.ops.empty();
  PrintResult(correct, tally, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vchain_perfbench --workload NAME --seed N --seconds "
                 "S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  for (const perfbench::Spec& spec : perfbench::kSpecs) {
    if (args.workload == spec.name) {
      std::filesystem::create_directories(args.work_dir);
      const int rc = perfbench::Run(spec, args);
      std::error_code ec;
      std::filesystem::remove_all(args.work_dir, ec);
      return rc;
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}

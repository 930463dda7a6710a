// bench/harness — the scaffolding the gated benches share: one solver
// dataset, one query mix, one answer classification, one in-process
// fleet, one private scratch directory, and one way to report gates.
// Each bench keeps only its own phases, the mpptest shape of one routine
// per measured operation on shared scaffolding.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/scratch.h"
#include "common/stats.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "shard/map.h"
#include "shard/reshard.h"
#include "shard/router.h"
#include "svc/service.h"

namespace gs::bench {

/// Deterministic per-stream generator (no global RNG: client threads
/// must not serialize on a shared generator).
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

/// printf into a std::string, for gate details.
std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// The solver dataset every serving bench serves.
struct Dataset {
  std::string path;
  std::int64_t n_steps = 0;  ///< output steps
  std::int64_t L = 0;
};

/// Runs the workflow at L=32 for 20 steps with an output every 4 (5
/// output steps) and noise 0.1, on 8 ranks at 4 per node (8 blocks per
/// variable and step), writing the dataset to `path`. With `compress`
/// the blocks are Gorilla-encoded, so a svc::Service decodes them into
/// its BlockCache instead of serving zero-copy mmap views.
Dataset make_dataset(const std::string& path, bool compress = false);

/// The 5-verb query mix (list, stats, histogram, slice, read_box) over
/// a dataset of `n_steps` output steps and extent L. Query q's step and
/// coordinates come from Lcg{seed ^ q * 2654435761}, so the same (q,
/// seed) always encodes to the same request bytes.
svc::Request make_query(std::size_t q, std::int64_t n_steps, std::int64_t L,
                        std::uint64_t seed);

/// Query q of a bench's query space.
using QueryFn = std::function<svc::Request(std::size_t q)>;

/// Every block key of the dataset at `path`: the universe ring-movement
/// bounds are computed over (svc::dataset_blocks, named by
/// shard::Ring::block_key).
std::vector<std::string> dataset_block_keys(const std::string& path);

class Gates;

/// The identity CRC of every query in [0, n) answered by `service`, the
/// ground truth every served answer is checked against. Registers the
/// fatal gate "ground truth computed"; returns an empty vector when a
/// query fails, and the bench then ends with gates.report().
std::vector<std::uint32_t> ground_truth(svc::Service& service, std::size_t n,
                                        const QueryFn& query, Gates& gates);

/// Classified answers of one pass. An answer is exact only when it is
/// ok, not degraded, and its identity CRC matches the ground truth;
/// degraded when it is flagged degraded or not ok (explicit, never
/// silent); wrong when it is ok and undegraded but its CRC mismatches.
/// `failed` counts calls whose transport retries ran out.
struct PassResult {
  std::uint64_t exact = 0;
  std::uint64_t degraded = 0;
  std::uint64_t wrong = 0;
  std::uint64_t failed = 0;
  gs::Samples latencies;        ///< seconds, exact answers only
  std::string sample_degraded;  ///< one degraded status message, for naming

  void add(const svc::Response& response,
           const std::vector<std::uint32_t>& expected, std::size_t q,
           double seconds = 0.0);
  void merge(const PassResult& other);
  /// "exact=.. degraded=.. wrong=.. failed=..".
  std::string counts() const;
};

/// `rounds` sweeps of the query space [0, expected.size()) through one
/// rpc::Client (6 retries, 1 ms backoff) on `endpoint`.
PassResult sweep_wire(const rpc::Endpoint& endpoint, std::size_t rounds,
                      const std::vector<std::uint32_t>& expected,
                      const QueryFn& query);

/// The grace window every Fleet daemon keeps a superseded epoch
/// answerable for after a reload.
constexpr double kReloadGraceSeconds = 2.0;

/// An in-process cluster: `daemons` Service + rpc::Server pairs, daemon
/// i with shard id s<i>, 2 threads and a unix socket in `dir`, behind a
/// Router (probe interval 50 ms) that a front rpc::Server serves on
/// loopback TCP, so clients take the wire path of a real gsrouter
/// deployment. Every daemon runs from construction; which of them serve
/// is decided by the epoch maps alone.
struct Fleet {
  /// Daemons and router start on epoch 1 over s0..s<initial_shards - 1>.
  Fleet(std::string dataset, std::string dir, std::size_t daemons,
        std::size_t initial_shards, shard::RouterConfig router_config = {});
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::string endpoint(std::size_t i) const;
  /// Epoch `epoch` over daemons s0..s<n_shards - 1>.
  std::shared_ptr<const shard::ShardMap> make_map(std::uint64_t epoch,
                                                  std::size_t n_shards) const;
  /// (Re)starts daemon i on its endpoint, serving the initial map.
  void start(std::size_t i);
  /// Shuts daemon i down; its endpoint stops answering until start(i).
  void kill(std::size_t i);
  /// Daemon i adopts `next` (Service::reload_shard_map).
  shard::ReplacementStats reload(std::size_t i,
                                 std::shared_ptr<const shard::ShardMap> next);
  /// (Re)starts the front server over the current router.
  void start_front();

  std::string dataset;
  std::string dir;
  std::shared_ptr<const shard::ShardMap> initial;
  std::vector<std::unique_ptr<svc::Service>> services;
  std::vector<std::unique_ptr<rpc::Server>> servers;
  std::unique_ptr<shard::Router> router;
  std::unique_ptr<rpc::Server> front;
};

/// A bench's gates. A fatal gate fails the run whatever the environment;
/// a relaxable one (wall clock, bandwidth, budgets a shared runner
/// cannot guarantee) is reported RELAXED instead of failing when
/// GS_BENCH_NONFATAL is set to any value.
class Gates {
 public:
  /// `bench` names the BENCH_JSON record.
  explicit Gates(std::string bench);

  /// Registers a fatal gate; returns `ok`. `detail` is printed when the
  /// gate does not pass.
  bool check(std::string name, bool ok, std::string detail = "");
  /// Registers a relaxable gate; returns `ok`.
  bool relaxable(std::string name, bool ok, std::string detail = "");
  /// Adds `"key":value`, printed with `precision` decimals, to the
  /// BENCH_JSON record.
  void metric(std::string key, double value, int precision = 3);

  /// Prints every gate, then one `BENCH_JSON {...}` line, then
  /// `RESULT: PASS` or `RESULT: FAIL`; returns the exit code, 1 when a
  /// gate failed and was not relaxed.
  int report() const;

 private:
  struct Gate {
    std::string name;
    bool ok = false;
    bool relaxable = false;
    std::string detail;
  };
  std::string bench_;
  bool nonfatal_ = false;
  std::vector<Gate> gates_;
  std::vector<std::pair<std::string, std::string>> metrics_;
};

/// The end of a bench whose main threw: prints the exception as a failed
/// run and returns exit code 1. Used as the handler of main's function
/// try block, so the body's ScratchDir is already removed.
int uncaught(const std::exception& e);

}  // namespace gs::bench

#include "bench/harness.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "bp/reader.h"
#include "common/error.h"
#include "core/workflow.h"
#include "mpi/runtime.h"
#include "rpc/wire.h"

namespace gs::bench {

std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

// ---- dataset and queries --------------------------------------------------

Dataset make_dataset(const std::string& path, bool compress) {
  Settings settings;
  settings.L = 32;
  settings.steps = 20;
  settings.plotgap = 4;
  settings.noise = 0.1;
  settings.output = path;
  settings.ranks_per_node = 4;
  settings.compress = compress;
  mpi::run(8, [&](mpi::Comm& world) {
    core::Workflow wf(settings, world);
    wf.run();
  });
  return Dataset{path, settings.steps / settings.plotgap, settings.L};
}

svc::Request make_query(std::size_t q, std::int64_t n_steps, std::int64_t L,
                        std::uint64_t seed) {
  Lcg rng{seed ^ (q * 2654435761ull)};
  const std::int64_t step = static_cast<std::int64_t>(
      rng.next() % static_cast<std::uint64_t>(n_steps));
  svc::Request request;
  switch (q % 5) {
    case 0:
      request.body = svc::ListVariablesQ{};
      break;
    case 1:
      request.body = svc::FieldStatsQ{q % 2 ? "U" : "V", step};
      break;
    case 2:
      request.body = svc::HistogramQ{q % 2 ? "V" : "U", step, 32};
      break;
    case 3:
      request.body = svc::Slice2DQ{
          "U", step, 2,
          static_cast<std::int64_t>(rng.next() %
                                    static_cast<std::uint64_t>(L))};
      break;
    default: {
      const std::int64_t half = L / 2;
      request.body = svc::ReadBoxQ{
          "V", step,
          Box3{{0, 0,
                static_cast<std::int64_t>(
                    rng.next() % static_cast<std::uint64_t>(half))},
               {half, half, half}}};
      break;
    }
  }
  return request;
}

std::vector<std::string> dataset_block_keys(const std::string& path) {
  std::vector<std::string> keys;
  for (const svc::BlockId& id : svc::dataset_blocks(bp::Reader(path))) {
    keys.push_back(shard::Ring::block_key(id.variable, id.step, id.block));
  }
  return keys;
}

std::vector<std::uint32_t> ground_truth(svc::Service& service, std::size_t n,
                                        const QueryFn& query, Gates& gates) {
  std::vector<std::uint32_t> expected(n);
  for (std::size_t q = 0; q < n; ++q) {
    const auto response = service.call(query(q));
    if (!response.status.ok()) {
      gates.check("ground truth computed", false,
                  fmt("query %zu failed: %s", q,
                      response.status.message.c_str()));
      return {};
    }
    expected[q] = rpc::identity_crc(response);
  }
  gates.check("ground truth computed", true);
  return expected;
}

// ---- answer classification ------------------------------------------------

void PassResult::add(const svc::Response& response,
                     const std::vector<std::uint32_t>& expected,
                     std::size_t q, double seconds) {
  if (response.status.ok() && !response.degraded &&
      rpc::identity_crc(response) == expected[q]) {
    ++exact;
    latencies.add(seconds);
  } else if (response.degraded || !response.status.ok()) {
    ++degraded;
    if (sample_degraded.empty()) sample_degraded = response.status.message;
  } else {
    ++wrong;
    std::printf("WRONG: query %zu answered ok+undegraded with a mismatched "
                "identity\n",
                q);
  }
}

void PassResult::merge(const PassResult& other) {
  exact += other.exact;
  degraded += other.degraded;
  wrong += other.wrong;
  failed += other.failed;
  for (const double x : other.latencies.values()) latencies.add(x);
  if (sample_degraded.empty()) sample_degraded = other.sample_degraded;
}

std::string PassResult::counts() const {
  return fmt("exact=%llu degraded=%llu wrong=%llu failed=%llu",
             (unsigned long long)exact, (unsigned long long)degraded,
             (unsigned long long)wrong, (unsigned long long)failed);
}

PassResult sweep_wire(const rpc::Endpoint& endpoint, std::size_t rounds,
                      const std::vector<std::uint32_t>& expected,
                      const QueryFn& query) {
  PassResult result;
  rpc::ClientConfig config;
  config.retries = 6;
  config.backoff_ms = 1.0;
  rpc::Client client(endpoint, config);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t q = 0; q < expected.size(); ++q) {
      const auto a = std::chrono::steady_clock::now();
      try {
        const svc::Response response = client.call(query(q));
        result.add(response, expected, q,
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - a)
                       .count());
      } catch (const IoError&) {
        ++result.failed;
      }
    }
  }
  return result;
}

// ---- Fleet ----------------------------------------------------------------

Fleet::Fleet(std::string dataset_path, std::string scratch,
             std::size_t daemons, std::size_t initial_shards,
             shard::RouterConfig router_config)
    : dataset(std::move(dataset_path)), dir(std::move(scratch)) {
  initial = make_map(1, initial_shards);
  services.resize(daemons);
  servers.resize(daemons);
  for (std::size_t i = 0; i < daemons; ++i) start(i);
  router_config.probe_interval_ms = 50;
  router = std::make_unique<shard::Router>(initial, router_config);
  start_front();
}

Fleet::~Fleet() {
  if (front) front->shutdown();
  if (router) router->shutdown();
  for (std::size_t i = 0; i < services.size(); ++i) kill(i);
}

std::string Fleet::endpoint(std::size_t i) const {
  return "unix:" + dir + "/s" + std::to_string(i) + ".sock";
}

std::shared_ptr<const shard::ShardMap> Fleet::make_map(
    std::uint64_t epoch, std::size_t n_shards) const {
  std::vector<shard::ShardInfo> infos;
  for (std::size_t i = 0; i < n_shards; ++i) {
    infos.push_back(shard::ShardInfo{
        std::string("s").append(std::to_string(i)), endpoint(i)});
  }
  return std::make_shared<const shard::ShardMap>(epoch, 64, std::move(infos));
}

void Fleet::start(std::size_t i) {
  svc::ServiceConfig config;
  config.threads = 2;
  config.shard_map = initial;
  config.shard_id = std::string("s").append(std::to_string(i));
  config.reload_grace_seconds = kReloadGraceSeconds;
  services[i] = std::make_unique<svc::Service>(dataset, std::move(config));
  rpc::ServerConfig server_config;
  server_config.listen = endpoint(i);
  servers[i] = std::make_unique<rpc::Server>(*services[i], server_config);
}

void Fleet::kill(std::size_t i) {
  if (servers[i]) servers[i]->shutdown();
  if (services[i]) services[i]->shutdown();
  servers[i].reset();
  services[i].reset();
}

shard::ReplacementStats Fleet::reload(
    std::size_t i, std::shared_ptr<const shard::ShardMap> next) {
  return services[i]->reload_shard_map(std::move(next));
}

void Fleet::start_front() {
  rpc::ServerConfig front_config;
  front_config.max_connections = 64;
  front = std::make_unique<rpc::Server>(*router, front_config);
}

// ---- Gates ----------------------------------------------------------------

Gates::Gates(std::string bench)
    : bench_(std::move(bench)),
      nonfatal_(std::getenv("GS_BENCH_NONFATAL") != nullptr) {}

bool Gates::check(std::string name, bool ok, std::string detail) {
  gates_.push_back(Gate{std::move(name), ok, false, std::move(detail)});
  return ok;
}

bool Gates::relaxable(std::string name, bool ok, std::string detail) {
  gates_.push_back(Gate{std::move(name), ok, true, std::move(detail)});
  return ok;
}

void Gates::metric(std::string key, double value, int precision) {
  metrics_.emplace_back(std::move(key), fmt("%.*f", precision, value));
}

int Gates::report() const {
  std::size_t failed = 0;
  std::size_t relaxed = 0;
  std::printf("\ngates:\n");
  for (const Gate& g : gates_) {
    const char* verdict = "PASS";
    if (!g.ok && g.relaxable && nonfatal_) {
      verdict = "RELAXED";
      ++relaxed;
    } else if (!g.ok) {
      verdict = "FAIL";
      ++failed;
    }
    std::printf("  %-58s %s%s%s\n", g.name.c_str(), verdict,
                g.ok || g.detail.empty() ? "" : "  — ",
                g.ok ? "" : g.detail.c_str());
  }
  std::string json = "{\"bench\":\"" + bench_ + "\"";
  for (const auto& [key, value] : metrics_) {
    json += ",\"" + key + "\":" + value;
  }
  json += fmt(",\"gates\":%zu,\"failed\":%zu,\"relaxed\":%zu}", gates_.size(),
              failed, relaxed);
  std::printf("BENCH_JSON %s\n", json.c_str());
  std::printf("RESULT: %s\n", failed == 0 ? "PASS" : "FAIL");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

int uncaught(const std::exception& e) {
  std::printf("FAIL: uncaught exception: %s\nRESULT: FAIL\n", e.what());
  return 1;
}

}  // namespace gs::bench

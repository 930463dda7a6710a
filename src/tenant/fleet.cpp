#include "tenant/fleet.h"

#include <chrono>
#include <utility>

#include "common/error.h"

namespace gs::tenant {

Fleet::Fleet(FleetConfig config)
    : config_(std::move(config)), sched_([this] {
        sched::SchedulerConfig cfg = config_.sched;
        auto user = cfg.observer;
        cfg.observer = [this, user](const sched::Job& job,
                                    const sched::AccountingEvent& ev) {
          if (ev.event == "COMPLETED" &&
              job.spec.payload.kind == sched::PayloadKind::functional) {
            publish(job.spec.payload.settings.output);
          }
          if (user) user(job, ev);
        };
        return cfg;
      }()) {}

Fleet::~Fleet() {
  wait();
  // services_ teardown drains every serving tier (Service::~Service).
}

void Fleet::start(const sched::Campaign& campaign, double submit_at) {
  GS_REQUIRE(!runner_.joinable(),
             "a campaign is already running; wait() for it first");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    campaign_done_ = false;
  }
  sched::submit_campaign(sched_, campaign, submit_at);
  runner_ = std::thread([this] {
    sched_.run();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      campaign_done_ = true;
    }
    cv_.notify_all();
  });
}

void Fleet::wait() {
  if (runner_.joinable()) runner_.join();
}

void Fleet::run_campaign(const sched::Campaign& campaign, double submit_at) {
  start(campaign, submit_at);
  wait();
}

void Fleet::publish(const std::string& path) {
  // Only the runner thread publishes, so the existence check does not
  // race the construction below. A re-run of an already-published stage
  // (same committed bytes — the writer is deterministic) keeps the
  // original service: queries in flight never lose their dataset.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (services_.count(path)) return;
  }
  auto service = std::make_unique<svc::Service>(path, config_.service);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    services_.emplace(path, std::move(service));
    order_.push_back(path);
  }
  cv_.notify_all();
}

svc::Service* Fleet::find(const std::string& dataset) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = services_.find(dataset);
  return it == services_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Fleet::datasets() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return order_;
}

bool Fleet::wait_for_datasets(std::size_t n, double timeout_seconds) const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(timeout_seconds)),
               [&] { return order_.size() >= n || campaign_done_; });
  return order_.size() >= n;
}

svc::Response Fleet::query(const std::string& tenant,
                           const std::string& dataset, svc::QueryBody body) {
  svc::Service* service = find(dataset);
  if (service == nullptr) {
    GS_THROW(ParseError, "dataset '" << dataset << "' is not published");
  }
  svc::Request request;
  request.body = std::move(body);
  request.timeout_seconds = config_.query_timeout_seconds;
  request.tenant = tenant;
  svc::Response response = service->call(std::move(request));
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    TenantCounters& tc = tenant_stats_[tenant];
    if (response.status.ok()) {
      ++tc.ok;
      tc.latencies.add(response.latency_seconds);
      if (config_.service.slo_seconds > 0.0 &&
          response.latency_seconds > config_.service.slo_seconds) {
        ++tc.slo_violations;
      }
    } else {
      ++tc.errors;
    }
  }
  return response;
}

svc::MetricsSnapshot Fleet::service_metrics(const std::string& dataset) const {
  svc::Service* service = find(dataset);
  if (service == nullptr) {
    GS_THROW(ParseError, "dataset '" << dataset << "' is not published");
  }
  return service->metrics();
}

std::map<std::string, TenantServingStats> Fleet::serving_stats() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  std::map<std::string, TenantServingStats> out;
  for (const auto& [name, tc] : tenant_stats_) {
    out[name] = TenantServingStats{tc.ok, tc.errors, tc.slo_violations,
                                   tc.latencies.summary()};
  }
  return out;
}

}  // namespace gs::tenant

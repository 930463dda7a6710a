#include "rpc/client.h"

#include <utility>

namespace gs::rpc {

Client::Client(Endpoint endpoint, ClientConfig config)
    : Channel(std::move(endpoint), config),
      timeout_seconds_(config.default_timeout_seconds),
      tenant_(config.tenant) {}

svc::Response Client::call(const svc::Request& request) {
  last_ = Channel::call(request);
  return last_;
}

svc::Response& Client::exchange(svc::QueryBody body) {
  svc::Request request;
  request.body = std::move(body);
  request.timeout_seconds = timeout_seconds_;
  request.tenant = tenant_;
  last_ = Channel::call(request);
  return last_;
}

}  // namespace gs::rpc

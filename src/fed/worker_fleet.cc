#include "fed/worker_fleet.h"

#include <thread>

#include "common/string_util.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {

Status WorkerFleet::Accept(net::ServerSocket& server, int num_clients,
                           const std::vector<std::vector<int>>& ownership,
                           const WorkerFleetOptions& options) {
  const int num_workers = static_cast<int>(ownership.size());
  worker_index_base_ = options.worker_index_base;
  links_.clear();
  links_.resize(static_cast<size_t>(num_workers));
  owner_.assign(static_cast<size_t>(num_clients), -1);
  for (int w = 0; w < num_workers; ++w) {
    links_[static_cast<size_t>(w)].client_ids = ownership[static_cast<size_t>(w)];
    for (int id : ownership[static_cast<size_t>(w)]) {
      owner_[static_cast<size_t>(id)] = w;
    }
  }

  param_count_ = -1;
  moments_size_.store(-1);
  init_params_.clear();
  for (int w = 0; w < num_workers; ++w) {
    Result<net::Socket> accepted = server.Accept(options.accept_timeout_ms);
    FEDGTA_RETURN_IF_ERROR(accepted.status());
    net::RpcChannel channel(std::move(*accepted), options.rpc);
    net::HelloMsg hello;
    FEDGTA_RETURN_IF_ERROR(net::ExpectMessage(channel.socket(), &hello));
    const int64_t hello_recv_us = internal_obs::TraceNowMicros();
    if (hello.protocol_version < net::kMinProtocolVersion ||
        hello.protocol_version > net::kProtocolVersion) {
      return net::Complain(
          channel.socket(),
          FailedPreconditionError(
              "protocol versions " + std::to_string(net::kMinProtocolVersion) +
              ".." + std::to_string(net::kProtocolVersion) +
              " accepted, worker speaks " +
              std::to_string(hello.protocol_version)));
    }
    if (hello.node_role != static_cast<uint32_t>(net::NodeRole::kWorker)) {
      return net::Complain(
          channel.socket(),
          FailedPreconditionError(
              "expected a worker connection, peer announced role " +
              std::to_string(hello.node_role)));
    }
    // Codec negotiation: the requested codec if this worker advertised it,
    // raw otherwise. A raw outcome builds no Link at all, so those
    // connections ship uncompressed bytes.
    net::compress::CodecId negotiated = net::compress::CodecId::kRaw;
    if (options.compress != "off") {
      const net::compress::Codec* requested =
          net::compress::FindCodec(options.compress);
      FEDGTA_CHECK(requested != nullptr)
          << "caller admitted unknown codec " << options.compress;
      negotiated = net::compress::Negotiate(requested->id(),
                                            hello.codec_capabilities);
    }
    net::AssignConfigMsg assign;
    assign.config = options.wire;
    WorkerLink& link = links_[static_cast<size_t>(w)];
    assign.client_ids.assign(link.client_ids.begin(), link.client_ids.end());
    // Clock sync (NTP midpoint): echo when the Hello landed and when this
    // reply leaves, both on the server trace clock; the worker combines
    // them with its own send/recv times to shift its trace timebase.
    assign.hello_recv_us = hello_recv_us;
    assign.worker_index = options.worker_index_base + w;
    assign.codec_id = static_cast<uint32_t>(negotiated);
    assign.compress_topk = options.compress_topk;
    if (negotiated != net::compress::CodecId::kRaw) {
      link.compress = std::make_unique<net::compress::Link>(
          net::compress::FindCodec(negotiated), options.compress_topk,
          &link.downloads);
    }
    assign.assign_send_us = internal_obs::TraceNowMicros();
    net::ConfigAckMsg ack;
    FEDGTA_RETURN_IF_ERROR(channel.Call(assign, &ack));
    GlobalTimeline().Worker(options.worker_index_base + w, "connected");
    if (param_count_ < 0) param_count_ = ack.param_count;
    if (ack.param_count != param_count_) {
      return FailedPreconditionError(
          "workers disagree on the model parameter count");
    }
    if (!ack.init_params.empty()) init_params_ = std::move(ack.init_params);
    link.channel = std::move(channel);
  }
  if (!init_params_.empty() &&
      static_cast<int64_t>(init_params_.size()) != param_count_) {
    return FailedPreconditionError(
        "init parameter vector length disagrees with the reported count");
  }
  return OkStatus();
}

template <typename Request, typename Response>
Status WorkerFleet::Call(size_t w, const Request& request, Response* response,
                         FleetMetricsMerger* merger) {
  WorkerLink& link = links_[w];
  Status rpc = link.channel.ok()
                   ? link.channel.Call(request, response, link.compress.get())
                   : InternalError("worker connection is down");
  if (!rpc.ok()) {
    link.health->healthy.store(false, std::memory_order_relaxed);
    return rpc;
  }
  link.health->last_response_us.store(internal_obs::TraceNowMicros(),
                                      std::memory_order_relaxed);
  link.health->responses.fetch_add(1, std::memory_order_relaxed);
  merger->Apply(worker_index_base_ + static_cast<int>(w), response->metrics);
  if (response->client_id != request.client_id) {
    return InternalError("response for a different client id");
  }
  return OkStatus();
}

namespace {

/// Fills a request's download: a bare reuse marker when the worker already
/// holds exactly these weights for the client, else the weights, which
/// become the stashed copy.
template <typename Request>
void StageDownload(net::DownloadStash& stash, std::vector<float> weights,
                   Request* request) {
  request->reuse = stash.Holds(request->client_id, weights);
  if (request->reuse) return;
  request->weights = weights;
  stash.Store(request->client_id, std::move(weights));
}

}  // namespace

Status WorkerFleet::TrainClient(int round, int client_id,
                                std::vector<float> weights,
                                FleetMetricsMerger* merger,
                                net::TrainResponseMsg* response) {
  const size_t w = static_cast<size_t>(owner(client_id));
  net::TrainRequestMsg request;
  request.round = round;
  request.client_id = client_id;
  StageDownload(links_[w].downloads, std::move(weights), &request);
  FEDGTA_RETURN_IF_ERROR(Call(w, request, response, merger));
  if (response->round != round) {
    return InternalError("response for a different round");
  }
  // Only an upload with a payload can reach aggregation; there its lengths
  // feed CHECKed kernels, so a mis-sized one is this client's failure.
  if (response->fate != static_cast<uint32_t>(ClientFate::kHealthy) &&
      response->weights.empty()) {
    return OkStatus();
  }
  if (static_cast<int64_t>(response->weights.size()) != param_count_) {
    return InvalidArgumentError(
        "upload of " + std::to_string(response->weights.size()) +
        " weights, model has " + std::to_string(param_count_));
  }
  const int64_t moments = static_cast<int64_t>(response->moments.size());
  int64_t expected = -1;
  if (!moments_size_.compare_exchange_strong(expected, moments) &&
      expected != moments) {
    return InvalidArgumentError("upload of " + std::to_string(moments) +
                                " moments, earlier uploads had " +
                                std::to_string(expected));
  }
  return OkStatus();
}

void WorkerFleet::TrainRound(int round, const std::vector<int>& participants,
                             const std::vector<ClientFate>& fates,
                             const WeightsFn& weights_for,
                             FleetMetricsMerger* merger,
                             std::vector<net::TrainResponseMsg>* responses,
                             std::vector<Status>* rpc_status) {
  const size_t n_part = participants.size();
  responses->assign(n_part, net::TrainResponseMsg());
  rpc_status->assign(n_part, OkStatus());
  const TraceContext dispatch_ctx = CurrentTraceContext();
  // One dispatch thread per worker: requests on one connection are
  // strictly sequential (request/response protocol); workers run
  // concurrently. Responses land in participant-index-aligned slots.
  std::vector<std::thread> threads;
  threads.reserve(links_.size());
  for (size_t w = 0; w < links_.size(); ++w) {
    threads.emplace_back([&, w] {
      // Re-install the round context (thread-locals don't inherit), so
      // every TrainRequest envelope parents to the round span.
      ScopedTraceContext adopt(dispatch_ctx);
      for (size_t i = 0; i < n_part; ++i) {
        const int id = participants[i];
        if (owner(id) != static_cast<int>(w) ||
            fates[i] == ClientFate::kDropout) {
          continue;
        }
        (*rpc_status)[i] = TrainClient(round, id, weights_for(id), merger,
                                       &(*responses)[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void WorkerFleet::EvalClients(const WeightsFn& weights_for,
                              FleetMetricsMerger* merger,
                              std::vector<double>* test_acc,
                              std::vector<double>* val_acc,
                              std::vector<char>* evaluated) {
  // Thread-locals don't cross std::thread creation: capture the round's
  // context here and re-install it in each eval thread so the requests'
  // envelopes parent to the round span.
  const TraceContext eval_ctx = CurrentTraceContext();
  std::vector<std::thread> threads;
  threads.reserve(links_.size());
  for (size_t w = 0; w < links_.size(); ++w) {
    threads.emplace_back([&, w] {
      ScopedTraceContext adopt(eval_ctx);
      for (int id : links_[w].client_ids) {
        net::EvalRequestMsg req;
        req.client_id = id;
        StageDownload(links_[w].downloads, weights_for(id), &req);
        net::EvalResponseMsg resp;
        if (!Call(w, req, &resp, merger).ok()) continue;
        (*test_acc)[static_cast<size_t>(id)] = resp.test_accuracy;
        (*val_acc)[static_cast<size_t>(id)] = resp.val_accuracy;
        (*evaluated)[static_cast<size_t>(id)] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void WorkerFleet::Shutdown() {
  for (WorkerLink& link : links_) {
    if (!link.channel.ok()) continue;
    net::ShutdownMsg shutdown;
    if (!net::SendMessage(link.channel.socket(), shutdown).ok()) continue;
    net::ShutdownAckMsg ack;
    (void)net::ExpectMessage(link.channel.socket(), &ack);
  }
}

std::string RenderWorkerRows(const std::vector<WorkerStatusEntry>& entries,
                             int index_base) {
  const int64_t now_us = internal_obs::TraceNowMicros();
  std::string out;
  for (size_t w = 0; w < entries.size(); ++w) {
    const WorkerHealth& health = *entries[w].health;
    const int64_t last = health.last_response_us.load();
    out += StrFormat(
        "  worker %d: %s clients=%d responses=%lld lag_ms=%lld\n",
        index_base + static_cast<int>(w),
        health.healthy.load() ? "healthy" : "DOWN", entries[w].num_clients,
        static_cast<long long>(health.responses.load()),
        static_cast<long long>(last > 0 ? (now_us - last) / 1000 : -1));
  }
  return out;
}

std::vector<WorkerStatusEntry> WorkerFleet::StatusSnapshot() const {
  std::vector<WorkerStatusEntry> entries;
  entries.reserve(links_.size());
  for (const WorkerLink& link : links_) {
    entries.push_back({link.health, static_cast<int>(link.client_ids.size())});
  }
  return entries;
}

}  // namespace fedgta

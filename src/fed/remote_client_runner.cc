#include "fed/remote_client_runner.h"

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "fed/client.h"
#include "fed/failure.h"
#include "fed/strategy.h"
#include "obs/metrics_delta.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace fedgta {

using net::Complain;

RemoteClientRunner::RemoteClientRunner(const RemoteRunnerOptions& options)
    : options_(options) {}

Status RemoteClientRunner::Run() {
  Result<net::Socket> dialed =
      net::ConnectWithRetry(options_.host, options_.port, options_.rpc);
  FEDGTA_RETURN_IF_ERROR(dialed.status());
  net::Socket sock = std::move(*dialed);
  FEDGTA_RETURN_IF_ERROR(sock.SetRecvTimeout(options_.rpc.deadline_ms));

  // Advertised codec set (DESIGN.md §5j): everything by default, nothing
  // beyond raw under --compress=off, or a single named codec. The server
  // negotiates its own request down to this set, so a restricted worker
  // degrades the connection rather than failing the handshake.
  uint32_t advertised =
      net::compress::CapabilityBit(net::compress::CodecId::kRaw);
  if (options_.compress.empty()) {
    advertised = net::compress::AllCapabilities();
  } else if (options_.compress != "off") {
    const net::compress::Codec* codec =
        net::compress::FindCodec(options_.compress);
    if (codec == nullptr) {
      return InvalidArgumentError("unknown compress codec '" +
                                  options_.compress + "'");
    }
    advertised |= net::compress::CapabilityBit(codec->id());
  }

  net::HelloMsg hello;
  hello.t_send_us = internal_obs::TraceNowMicros();
  hello.codec_capabilities = advertised;
  FEDGTA_RETURN_IF_ERROR(net::SendMessage(sock, hello));
  net::AssignConfigMsg assign;
  FEDGTA_RETURN_IF_ERROR(net::ExpectMessage(sock, &assign));
  const int64_t t3 = internal_obs::TraceNowMicros();

  // The last download of each hosted client (DESIGN.md §5e): what a
  // request's reuse marker points at, and the delta codec's upload base.
  net::DownloadStash downloads;
  // The server's codec choice is binding, but only within what we
  // advertised — anything else is a protocol violation, not a fallback.
  std::unique_ptr<net::compress::Link> link;
  const auto codec_id = static_cast<net::compress::CodecId>(assign.codec_id);
  if (codec_id != net::compress::CodecId::kRaw) {
    const net::compress::Codec* codec = net::compress::FindCodec(codec_id);
    if (codec == nullptr ||
        (advertised & net::compress::CapabilityBit(codec_id)) == 0) {
      return Complain(sock, InvalidArgumentError(
                                "server assigned unadvertised codec id " +
                                std::to_string(assign.codec_id)));
    }
    link = std::make_unique<net::compress::Link>(codec, assign.compress_topk,
                                                 &downloads);
  }

  // NTP midpoint from the Hello/AssignConfig ping-pong: t0/t3 on our trace
  // clock, t1/t2 on the server's. Shifting our trace timestamps by this
  // offset puts a merged timeline on the server timebase; the process id
  // keys our spans to a distinct Perfetto track per worker.
  SetTraceClockOffset(((assign.hello_recv_us - hello.t_send_us) +
                       (assign.assign_send_us - t3)) /
                      2);
  SetTraceProcessId(assign.worker_index + 2);  // server owns pid 1
  SetTraceProcessName("fedgta_worker_" +
                      std::to_string(assign.worker_index));

  WorkerSetup setup;
  if (Status parsed = SetupFromWireConfig(assign.config, &setup);
      !parsed.ok()) {
    return Complain(sock, std::move(parsed));
  }

  // Hosted clients, constructed exactly as Simulation constructs its full
  // roster: same shard pointer, same configs, same per-client seed — so
  // client 0's fresh weights (the common initialization) and every local
  // RNG stream match the in-process run bit for bit.
  const int n_clients = setup.data.num_clients();
  std::vector<Client> clients;
  std::unordered_map<int, size_t> hosted;  // client id -> index in `clients`
  clients.reserve(assign.client_ids.size());
  for (int32_t id : assign.client_ids) {
    if (id < 0 || id >= n_clients) {
      return Complain(sock, InvalidArgumentError(
                                "assigned client id " + std::to_string(id) +
                                " outside [0, " + std::to_string(n_clients) +
                                ")"));
    }
    if (!hosted.emplace(id, clients.size()).second) {
      return Complain(sock, InvalidArgumentError(
                                "client id " + std::to_string(id) +
                                " assigned twice"));
    }
    clients.emplace_back(&setup.data.clients[static_cast<size_t>(id)],
                         setup.model, setup.optimizer, assign.config.seed);
    clients.back().SetBatchSize(setup.batch_size);
  }
  if (clients.empty()) {
    return Complain(sock, InvalidArgumentError("no clients assigned"));
  }

  const int64_t param_count = clients.front().param_count();
  net::ConfigAckMsg ack;
  ack.param_count = param_count;
  if (auto it = hosted.find(0); it != hosted.end()) {
    ack.init_params = clients[it->second].GetParams();
  }
  FEDGTA_RETURN_IF_ERROR(net::SendMessage(sock, ack));

  const FailurePlan plan(setup.failure);
  const bool failures = setup.failure.enabled();
  // What this worker must do per upload is a capability of the strategy,
  // not a name to string-match. SetupFromWireConfig already validated the
  // strategy and its remote-executability, so the probe cannot fail here.
  StrategyOptions probe_options;
  probe_options.prox_mu = setup.prox_mu;
  probe_options.fedgta = setup.gta;
  Result<std::unique_ptr<Strategy>> probe =
      MakeStrategy(setup.strategy, probe_options);
  FEDGTA_RETURN_IF_ERROR(probe.status());
  const StrategyCapabilities caps = (*probe)->Capabilities();
  // The proximal hook is re-implemented at the wire level (the worker never
  // instantiates the server-side Strategy for training), so the hook
  // install still keys on the wire identity.
  const bool is_fedprox = setup.strategy == "fedprox";

  FEDGTA_RETURN_IF_ERROR(sock.SetRecvTimeout(options_.idle_timeout_ms));
  // Ships registry changes (phase counters, histograms, net totals) on
  // every response; the server merges them under worker.<id>.* / fleet.*.
  MetricsDeltaEncoder metrics_encoder(&GlobalMetrics());
  // Decodes a Train/Eval request and resolves its download: shipped
  // weights become the client's stashed copy, a reuse marker points at the
  // existing one. Anything unusable is complained to the server, so a bad
  // request ends this worker with an error Status instead of an abort.
  auto accept_download = [&](auto& req, serialize::Reader& r,
                             const std::string& what, Client** client,
                             const std::vector<float>** weights) -> Status {
    Status decoded = req.Decode(&r, link.get());
    if (decoded.ok() && !r.AtEnd()) {
      decoded = InvalidArgumentError("trailing bytes after " + what);
    }
    if (!decoded.ok()) return Complain(sock, std::move(decoded));
    // Credit the download's decompression savings to net.bytes_raw (the
    // frame layer only saw the wire bytes).
    if (link) net::AddRecvSavedBytes(link->TakeSavedBytes());
    auto refuse = [&](const std::string& why) {
      return Complain(sock, InvalidArgumentError(
                                what + " request for client " +
                                std::to_string(req.client_id) + why));
    };
    auto it = hosted.find(req.client_id);
    if (it == hosted.end()) return refuse(": not hosted here");
    if (!req.reuse) {
      if (static_cast<int64_t>(req.weights.size()) != param_count) {
        return refuse(" carries " + std::to_string(req.weights.size()) +
                      " weights, model has " + std::to_string(param_count));
      }
      downloads.Store(req.client_id, std::move(req.weights));
    }
    const net::DownloadStash::Entry* stashed = downloads.Find(req.client_id);
    if (stashed == nullptr) return refuse(" reuses a download never sent");
    *client = &clients[it->second];
    *weights = &stashed->weights;
    return OkStatus();
  };
  int train_responses = 0;
  while (true) {
    Result<serialize::Reader> reader = net::RecvMessage(sock);
    FEDGTA_RETURN_IF_ERROR(reader.status());
    // Adopt the request's trace envelope for the whole handling scope:
    // spans recorded here chain to the server's round span, and the
    // response envelope echoes the context back.
    TraceContext request_ctx;
    Result<net::MsgType> type = net::ReadMsgType(&*reader, &request_ctx);
    FEDGTA_RETURN_IF_ERROR(type.status());
    ScopedTraceContext adopt(request_ctx);
    switch (*type) {
      case net::MsgType::kTrainRequest: {
        net::TrainRequestMsg req;
        Client* client = nullptr;
        const std::vector<float>* weights = nullptr;
        FEDGTA_RETURN_IF_ERROR(
            accept_download(req, *reader, "train", &client, &weights));
        const ClientFate fate = failures
                                    ? plan.FateOf(req.round, req.client_id)
                                    : ClientFate::kHealthy;
        net::TrainResponseMsg resp;
        resp.client_id = req.client_id;
        resp.round = req.round;
        resp.fate = static_cast<uint32_t>(fate);
        if (fate != ClientFate::kDropout) {
          // Crash truncation mirrors RoundExecutor: ceil(epochs / 2) local
          // epochs, then the "process dies" — nothing is uploaded.
          const int epochs = fate == ClientFate::kCrash
                                 ? (setup.local_epochs + 1) / 2
                                 : setup.local_epochs;
          WallTimer timer;
          {
            // The phase scope must close before the metrics delta is cut
            // below — otherwise this request's own remote_train increment
            // would only ship with the *next* response (and the final
            // one never).
            FEDGTA_PHASE_SCOPE("remote_train");
            client->SetParams(*weights);
            TrainHooks hooks;
            if (is_fedprox) {
              // The proximal anchor is the download itself (the simulation
              // anchors on global_params_, which is exactly what the server
              // sent or pointed at).
              const std::vector<float>& anchor = *weights;
              const float mu = setup.prox_mu;
              hooks.grad_hook = [&anchor, mu](std::span<const float> params,
                                              std::span<float> grads) {
                FEDGTA_CHECK_EQ(params.size(), anchor.size());
                for (size_t i = 0; i < grads.size(); ++i) {
                  grads[i] += mu * (params[i] - anchor[i]);
                }
              };
            }
            const double loss = client->TrainLocal(epochs, hooks);
            // In async mode a straggler's update is late, not lost: ship
            // the full payload and let the server's bounded-staleness
            // queue decide admission (sync keeps the empty-payload
            // discard, matching the simulation).
            if (fate == ClientFate::kHealthy ||
                (setup.async && fate == ClientFate::kStraggler)) {
              resp.loss = loss;
              resp.num_samples = client->num_train();
              resp.weights = client->GetParams();
              if (caps.uploads_topology_metrics) {
                ClientMetrics metrics =
                    client->ComputeFedGtaMetrics(setup.gta);
                resp.confidence = metrics.confidence;
                resp.moments = std::move(metrics.moments);
              }
            }
          }
          resp.seconds = timer.Seconds();
        }
        resp.metrics = metrics_encoder.Next();
        FEDGTA_RETURN_IF_ERROR(net::SendMessage(sock, resp, link.get()));
        ++train_responses;
        if (options_.max_train_requests > 0 &&
            train_responses >= options_.max_train_requests) {
          // Chaos hook: vanish mid-protocol like a killed process.
          return OkStatus();
        }
        break;
      }
      case net::MsgType::kEvalRequest: {
        net::EvalRequestMsg req;
        Client* client = nullptr;
        const std::vector<float>* weights = nullptr;
        FEDGTA_RETURN_IF_ERROR(
            accept_download(req, *reader, "eval", &client, &weights));
        net::EvalResponseMsg resp;
        resp.client_id = req.client_id;
        {
          // Closes before the delta cut, same as remote_train.
          FEDGTA_PHASE_SCOPE("remote_eval");
          client->SetParams(*weights);
          if (!client->data().test_idx.empty()) {
            resp.test_accuracy = client->TestAccuracy();
          }
          if (!client->data().val_idx.empty()) {
            resp.val_accuracy = client->ValAccuracy();
          }
        }
        resp.metrics = metrics_encoder.Next();
        FEDGTA_RETURN_IF_ERROR(net::SendMessage(sock, resp));
        break;
      }
      case net::MsgType::kShutdown: {
        net::ShutdownAckMsg bye;
        FEDGTA_RETURN_IF_ERROR(net::SendMessage(sock, bye));
        return OkStatus();
      }
      default:
        return Complain(
            sock, InvalidArgumentError(std::string("unexpected message: ") +
                                       net::MsgTypeName(*type)));
    }
  }
}

}  // namespace fedgta

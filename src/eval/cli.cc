#include "eval/cli.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/serialize.h"
#include "common/thread_pool.h"
#include "fed/simulation.h"
#include "fed/strategy.h"
#include "linalg/backend.h"
#include "net/compress/codec.h"

namespace fedgta {
namespace cli {
namespace {

constexpr unsigned kRun = 1u << 0;
constexpr unsigned kSrv = 1u << 1;
constexpr unsigned kWrk = 1u << 2;
constexpr unsigned kAgg = 1u << 3;

unsigned RoleBit(Role role) {
  switch (role) {
    case Role::kRunExperiment:
      return kRun;
    case Role::kServer:
      return kSrv;
    case Role::kWorker:
      return kWrk;
    case Role::kAggregator:
      return kAgg;
  }
  return 0;
}

/// One `--name=value` flag: which roles accept it and how it lands in the
/// struct. Boolean switches (--resume, --adaptive-epsilon, ...) are handled
/// separately since they take no value.
struct FlagDef {
  const char* name;
  unsigned roles;
  void (*set)(ExperimentCli&, const std::string&);
};

int ToInt(const std::string& v) { return std::atoi(v.c_str()); }
double ToDouble(const std::string& v) { return std::atof(v.c_str()); }
uint64_t ToUint64(const std::string& v) {
  return static_cast<uint64_t>(std::atoll(v.c_str()));
}

const FlagDef kFlags[] = {
    // Experiment identity.
    {"dataset", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.dataset = v; }},
    {"model", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.model = v; }},
    {"strategy", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.strategy = v; }},
    {"split", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.split = v; }},
    {"clients", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.clients = ToInt(v); }},
    {"rounds", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.rounds = ToInt(v); }},
    {"epochs", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.epochs = ToInt(v); }},
    {"hidden", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.hidden = ToInt(v); }},
    {"k", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.k = ToInt(v); }},
    {"batch", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.batch = ToInt(v); }},
    {"repeats", kRun,
     [](ExperimentCli& c, const std::string& v) { c.repeats = ToInt(v); }},
    {"participation", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.participation = ToDouble(v);
     }},
    {"epsilon", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.epsilon = ToDouble(v); }},
    {"similarity_mode", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.similarity_mode = v; }},
    {"seed", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.seed = ToUint64(v); }},
    // Failure injection.
    {"fail_dropout", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.fail_dropout = ToDouble(v);
     }},
    {"fail_straggler", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.fail_straggler = ToDouble(v);
     }},
    {"fail_crash", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.fail_crash = ToDouble(v);
     }},
    {"fail_seed", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.fail_seed = ToUint64(v);
     }},
    // Async runtime.
    {"staleness_tau", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.staleness_tau = ToInt(v);
       c.staleness_tau_given = true;
     }},
    {"staleness_decay", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.staleness_decay = ToDouble(v);
       c.staleness_decay_given = true;
     }},
    // Runtime.
    {"num_threads", kRun | kSrv | kWrk | kAgg,
     [](ExperimentCli& c, const std::string& v) {
       c.num_threads = ToInt(v);
       c.num_threads_given = true;
     }},
    {"backend", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.backend = v; }},
    // Outputs.
    {"csv", kRun,
     [](ExperimentCli& c, const std::string& v) { c.csv = v; }},
    {"metrics_json", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.metrics_json = v; }},
    {"trace_out", kRun | kSrv | kWrk | kAgg,
     [](ExperimentCli& c, const std::string& v) { c.trace_out = v; }},
    {"timeline_out", kRun | kSrv,
     [](ExperimentCli& c, const std::string& v) { c.timeline_out = v; }},
    // Checkpointing.
    {"checkpoint_dir", kRun,
     [](ExperimentCli& c, const std::string& v) { c.checkpoint_dir = v; }},
    {"checkpoint_every", kRun,
     [](ExperimentCli& c, const std::string& v) {
       c.checkpoint_every = ToInt(v);
     }},
    {"halt_after_round", kRun,
     [](ExperimentCli& c, const std::string& v) {
       c.halt_after_round = ToInt(v);
     }},
    // Wire compression.
    {"compress", kSrv,
     [](ExperimentCli& c, const std::string& v) { c.compress = v; }},
    {"compress_topk", kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.compress_topk = ToInt(v);
       c.compress_topk_given = true;
     }},
    // Transport.
    {"port", kSrv | kWrk | kAgg,
     [](ExperimentCli& c, const std::string& v) { c.port = ToInt(v); }},
    {"workers", kSrv,
     [](ExperimentCli& c, const std::string& v) { c.workers = ToInt(v); }},
    {"aggregators", kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.aggregators = ToInt(v);
     }},
    {"host", kWrk | kAgg,
     [](ExperimentCli& c, const std::string& v) { c.host = v; }},
    {"deadline_ms", kSrv | kWrk | kAgg,
     [](ExperimentCli& c, const std::string& v) { c.deadline_ms = ToInt(v); }},
    {"accept_timeout_ms", kSrv,
     [](ExperimentCli& c, const std::string& v) {
       c.accept_timeout_ms = ToInt(v);
     }},
    {"connect_attempts", kWrk | kAgg,
     [](ExperimentCli& c, const std::string& v) {
       c.connect_attempts = ToInt(v);
     }},
    {"idle_timeout_ms", kWrk | kAgg,
     [](ExperimentCli& c, const std::string& v) {
       c.idle_timeout_ms = ToInt(v);
     }},
    {"max_train_requests", kWrk,
     [](ExperimentCli& c, const std::string& v) {
       c.max_train_requests = ToInt(v);
     }},
    {"status_port", kSrv | kAgg,
     [](ExperimentCli& c, const std::string& v) { c.status_port = ToInt(v); }},
    {"listen_port", kAgg,
     [](ExperimentCli& c, const std::string& v) { c.listen_port = ToInt(v); }},
    {"port_file", kAgg,
     [](ExperimentCli& c, const std::string& v) { c.port_file = v; }},
};

/// Boolean switches (no =value).
struct SwitchDef {
  const char* name;
  unsigned roles;
  void (*set)(ExperimentCli&);
};

const SwitchDef kSwitches[] = {
    {"--adaptive-epsilon", kRun,
     [](ExperimentCli& c) { c.adaptive_epsilon = true; }},
    {"--feature-moments", kRun,
     [](ExperimentCli& c) { c.feature_moments = true; }},
    {"--resume", kRun, [](ExperimentCli& c) { c.resume = true; }},
    {"--async", kRun | kSrv, [](ExperimentCli& c) { c.async_mode = true; }},
};

std::string JoinBackends() {
  std::string names;
  for (const std::string& name : linalg::ListBackends()) {
    if (!names.empty()) names += " ";
    names += name;
  }
  return names;
}

std::string BackendHelpLines() {
  return "  --backend=NAME        kernel backend for GEMM/SpMM hot paths:\n"
         "                        " +
         JoinBackends() +
         " (default: FEDGTA_BACKEND env,\n"
         "                        else simd). Results agree across\n"
         "                        backends to float tolerance; runs are\n"
         "                        bit-reproducible within one backend,\n"
         "                        whichever ISA variant it picks. On\n"
         "                        x86 hosts without AVX2+FMA, reference\n"
         "                        is faster. fedgta_server ships its\n"
         "                        choice to every worker and aggregator\n";
}

std::string AsyncHelpLines() {
  return "  --async               bounded-staleness async runtime: updates\n"
         "                        stream into a server-side queue and "
         "injected\n"
         "                        stragglers arrive 1-3 rounds late instead "
         "of\n"
         "                        being discarded (DESIGN.md §5i)\n"
         "  --staleness_tau=N     admit updates at most N rounds stale; "
         "older\n"
         "                        ones are dropped and counted (requires\n"
         "                        --async; default 0, which is bit-identical\n"
         "                        to the synchronous run)\n"
         "  --staleness_decay=F   scale an admitted update's confidence and\n"
         "                        data-size weight by F^staleness, F in (0, "
         "1]\n"
         "                        (requires --async; default 0.5)\n";
}

std::string CompressHelpLines() {
  return "  --compress=MODE       wire codec for train/eval tensor traffic,\n"
         "                        assigned to every worker: raw | int8 | "
         "delta\n"
         "                        (default raw). int8 quantizes per tensor;\n"
         "                        delta ships top-k sparsified uploads "
         "against\n"
         "                        the last exchanged model (DESIGN.md §5j)\n"
         "  --compress_topk=N     elements kept per delta-sparsified tensor\n"
         "                        (requires --compress=delta; default: "
         "n/8,\n"
         "                        small tensors ship whole)\n";
}

std::string ThreadHelpLines() {
  return "  --num_threads=N       worker threads for the shared pool (client\n"
         "                        dispatch + GEMM/SpMM); 0 = "
         "FEDGTA_NUM_THREADS\n"
         "                        env var, else hardware concurrency. "
         "Results\n"
         "                        are identical for any value (default 0)\n";
}

Status Invalid(const std::string& message) {
  return InvalidArgumentError(message);
}

Status Validate(Role role, ExperimentCli* cli) {
  // An explicit --num_threads must name a usable pool size; only the
  // absent-flag default 0 means "FEDGTA_NUM_THREADS env / hardware".
  if (cli->num_threads_given && cli->num_threads < 1) {
    return Invalid(
        "--num_threads must be >= 1 (omit the flag for the hardware "
        "default)");
  }
  if (!cli->backend.empty() &&
      linalg::FindBackend(cli->backend) == nullptr) {
    return Invalid("unknown backend: " + cli->backend +
                   " (have: " + JoinBackends() + ")");
  }
  // Only the server takes the compression flags; other roles keep the
  // defaults, which pass.
  if (net::compress::FindCodec(cli->compress) == nullptr) {
    std::string names;
    for (const std::string& name : net::compress::ListCodecNames()) {
      names += " " + name;
    }
    return Invalid("--compress must be one of:" + names +
                   " (got: " + cli->compress + ")");
  }
  if (cli->compress_topk_given) {
    if (cli->compress != "delta") {
      return Invalid("--compress_topk requires --compress=delta");
    }
    if (cli->compress_topk < 1) {
      return Invalid("--compress_topk must be >= 1 (omit for the auto mode)");
    }
  }
  if (role == Role::kAggregator) {
    // Transport + shard-plane process; its experiment identity and fleet
    // knobs all arrive in ShardAssign, so nothing below applies.
    if (cli->listen_port < 0) {
      return Invalid("--listen_port must be >= 0 (0 = ephemeral)");
    }
    return OkStatus();
  }
  if (role == Role::kWorker) {
    // Transport-only process; nothing below applies.
    return OkStatus();
  }

  if (cli->clients < 1) return Invalid("--clients must be >= 1");
  if (cli->rounds < 1) return Invalid("--rounds must be >= 1");
  if (cli->epochs < 1) return Invalid("--epochs must be >= 1");
  if (role == Role::kRunExperiment && cli->repeats < 1) {
    return Invalid("--repeats must be >= 1");
  }
  if (cli->batch < 0) return Invalid("--batch must be >= 0 (0 = full-batch)");
  if (cli->participation <= 0.0 || cli->participation > 1.0) {
    return Invalid("--participation must be in (0, 1]");
  }
  if (cli->fail_dropout < 0.0 || cli->fail_straggler < 0.0 ||
      cli->fail_crash < 0.0 ||
      cli->fail_dropout + cli->fail_straggler + cli->fail_crash > 1.0) {
    return Invalid("failure rates must be >= 0 and sum to at most 1");
  }
  if (role == Role::kServer && cli->workers < 1) {
    return Invalid("--workers must be >= 1");
  }
  if (role == Role::kServer) {
    if (cli->aggregators < 0) {
      return Invalid("--aggregators must be >= 0 (0 = flat topology)");
    }
    if (cli->aggregators > 0) {
      if (cli->aggregators > cli->workers) {
        return Invalid(
            "--aggregators must be <= --workers (every aggregator needs a "
            "worker slice)");
      }
      if (cli->async_mode) {
        return Invalid(
            "--async is not supported with regional aggregators (DESIGN.md "
            "§5k)");
      }
    }
  }
  if (!cli->async_mode &&
      (cli->staleness_tau_given || cli->staleness_decay_given)) {
    return Invalid("--staleness_tau/--staleness_decay require --async");
  }
  if (cli->async_mode) {
    if (cli->staleness_tau < 0) {
      return Invalid("--staleness_tau must be >= 0");
    }
    if (!(cli->staleness_decay > 0.0 && cli->staleness_decay <= 1.0)) {
      return Invalid("--staleness_decay must be in (0, 1]");
    }
    if (role == Role::kRunExperiment &&
        (!cli->checkpoint_dir.empty() || cli->resume ||
         cli->halt_after_round > 0)) {
      return Invalid(
          "--async does not support checkpointing (--checkpoint_dir, "
          "--resume, --halt_after_round)");
    }
  }

  if (role == Role::kRunExperiment) {
    if (cli->resume && cli->checkpoint_dir.empty()) {
      return Invalid("--resume requires --checkpoint_dir");
    }
    if (cli->resume) {
      // Fail up front on an unreadable or corrupted checkpoint (bad magic,
      // version, truncation, CRC) rather than after dataset setup. A
      // missing file is fine — the run starts fresh and writes one.
      const std::string ckpt =
          Simulation::CheckpointPath(cli->checkpoint_dir);
      Result<serialize::Reader> probe = serialize::Reader::FromFile(ckpt);
      if (!probe.ok() && probe.status().code() != StatusCode::kNotFound) {
        return Invalid("cannot resume: " + probe.status().ToString());
      }
    }
  }

  if (!ParseSimilarityMode(cli->similarity_mode,
                           &cli->similarity_mode_parsed)) {
    return Invalid("--similarity_mode must be exact, auto, or lsh (got: " +
                   cli->similarity_mode + ")");
  }
  const Result<ModelType> model = ParseModelType(cli->model);
  if (!model.ok()) return model.status();
  cli->model_type = *model;
  const Result<SplitMethod> split = ParseSplitMethod(cli->split);
  if (!split.ok()) return split.status();
  cli->split_method = *split;
  if (!GetDatasetSpec(cli->dataset).ok()) {
    return Invalid("unknown dataset: " + cli->dataset + " (try --help)");
  }
  // Validate the strategy name before paying for dataset generation.
  Result<std::unique_ptr<Strategy>> strategy_probe =
      MakeStrategy(cli->strategy, cli->ToStrategyOptions());
  if (!strategy_probe.ok()) {
    return Invalid("unknown strategy: " + cli->strategy + " (try --help)");
  }
  if (cli->async_mode && !(*strategy_probe)->Capabilities().async_capable) {
    return Invalid("--async requires an async-capable strategy; '" +
                   cli->strategy +
                   "' assumes strict round alignment (see DESIGN.md §5i)");
  }
  return OkStatus();
}

}  // namespace

StrategyOptions ExperimentCli::ToStrategyOptions() const {
  StrategyOptions options;
  options.fedgta.epsilon = epsilon;
  options.fedgta.adaptive_epsilon = adaptive_epsilon;
  options.fedgta.use_feature_moments = feature_moments;
  options.fedgta.similarity.mode = similarity_mode_parsed;
  return options;
}

ExperimentConfig ExperimentCli::ToExperimentConfig() const {
  ExperimentConfig config;
  config.dataset = dataset;
  config.strategy = strategy;
  config.model.type = model_type;
  config.model.hidden = hidden;
  config.model.k = k;
  config.split.method = split_method;
  config.split.num_clients = clients;
  config.sim.rounds = rounds;
  config.sim.local_epochs = epochs;
  config.sim.batch_size = batch;
  config.sim.participation = participation;
  config.sim.eval_every = std::max(1, rounds / 20);
  config.sim.checkpoint_dir = checkpoint_dir;
  config.sim.checkpoint_every = checkpoint_every;
  config.sim.resume = resume;
  config.sim.halt_after_round = halt_after_round;
  config.sim.failure.dropout_rate = fail_dropout;
  config.sim.failure.straggler_rate = fail_straggler;
  config.sim.failure.crash_rate = fail_crash;
  config.sim.failure.seed = fail_seed;
  config.sim.async = async_mode;
  config.sim.staleness_tau = staleness_tau;
  config.sim.staleness_decay = staleness_decay;
  config.repeats = repeats;
  config.seed = seed;
  config.strategy_options = ToStrategyOptions();
  return config;
}

RemoteFedConfig ExperimentCli::ToRemoteConfig() const {
  RemoteFedConfig config;
  config.dataset = dataset;
  config.seed = seed;
  config.split.method = split_method;
  config.split.num_clients = clients;
  config.model.type = model_type;
  config.model.hidden = hidden;
  config.model.k = k;
  config.strategy = strategy;
  config.strategy_options = ToStrategyOptions();
  config.sim.rounds = rounds;
  config.sim.local_epochs = epochs;
  config.sim.batch_size = batch;
  config.sim.participation = participation;
  config.sim.eval_every = std::max(1, rounds / 20);
  config.sim.failure.dropout_rate = fail_dropout;
  config.sim.failure.straggler_rate = fail_straggler;
  config.sim.failure.crash_rate = fail_crash;
  config.sim.failure.seed = fail_seed;
  config.sim.async = async_mode;
  config.sim.staleness_tau = staleness_tau;
  config.sim.staleness_decay = staleness_decay;
  config.compress = compress;
  config.compress_topk = compress_topk;
  config.num_workers = workers;
  config.num_aggregators = aggregators;
  config.rpc.deadline_ms = deadline_ms;
  config.accept_timeout_ms = accept_timeout_ms;
  config.status_port = status_port;
  return config;
}

RemoteRunnerOptions ExperimentCli::ToRunnerOptions() const {
  RemoteRunnerOptions options;
  options.host = host;
  options.port = port;
  options.rpc.deadline_ms = deadline_ms;
  options.rpc.max_attempts = connect_attempts;
  options.idle_timeout_ms = idle_timeout_ms;
  options.max_train_requests = max_train_requests;
  return options;
}

fed::AggregatorOptions ExperimentCli::ToAggregatorOptions() const {
  fed::AggregatorOptions options;
  options.host = host;
  options.port = port;
  options.listen_port = listen_port;
  options.port_file = port_file;
  options.status_port = status_port;
  options.rpc.deadline_ms = deadline_ms;
  options.rpc.max_attempts = connect_attempts;
  options.idle_timeout_ms = idle_timeout_ms;
  return options;
}

std::string HelpText(Role role) {
  std::string text;
  switch (role) {
    case Role::kRunExperiment: {
      text =
          "run_experiment — federated graph learning from the command "
          "line\n\n"
          "  --dataset=NAME        one of:";
      for (const std::string& name : ListDatasets()) text += " " + name;
      text +=
          "\n  --model=NAME          gcn sage sgc sign s2gc gbp gamlp\n"
          "  --strategy=NAME       fedavg fedprox scaffold moon feddc gcfl+ "
          "fedgta local\n"
          "  --split=METHOD        louvain | metis\n"
          "  --clients=N           number of clients (default 10)\n"
          "  --rounds=N            federated rounds (default 50)\n"
          "  --epochs=N            local epochs per round (default 3)\n"
          "  --hidden=N            hidden width (default 64)\n"
          "  --k=N                 propagation steps (default 3)\n"
          "  --participation=F     fraction of clients per round (default "
          "1.0)\n"
          "  --batch=N             minibatch size, 0 = full-batch (default "
          "0)\n"
          "  --epsilon=F           FedGTA similarity threshold (default "
          "0.3)\n"
          "  --similarity_mode=M   Eq. 6 evaluation: exact | auto | lsh.\n"
          "                        exact is the determinism oracle; lsh "
          "prunes\n"
          "                        pairs provably below ε before the exact\n"
          "                        cosine check; auto picks lsh at >= 512\n"
          "                        participants (default exact)\n"
          "  --adaptive-epsilon    use the adaptive-ε extension\n"
          "  --feature-moments     use the FedGTA+feat extension\n"
          "  --repeats=N           independent runs (default 1)\n"
          "  --seed=N              base RNG seed (default 42)\n" +
          ThreadHelpLines() + BackendHelpLines() +
          "  --csv=PATH            write the first run's curve as CSV\n"
          "  --metrics_json=PATH   write the metrics-registry JSON dump\n"
          "                        (per-phase timers: spmm, gemm, "
          "label_propagation,\n"
          "                        moments, aggregation, ...; per-round "
          "client/server\n"
          "                        seconds; communication counters)\n"
          "  --trace_out=PATH      enable tracing and write a Chrome "
          "trace-event\n"
          "                        JSON timeline (open in chrome://tracing "
          "or\n"
          "                        ui.perfetto.dev)\n"
          "  --timeline_out=PATH   write the live round timeline as JSON "
          "lines\n"
          "                        (round starts/ends, per-client fates)\n"
          "  --checkpoint_dir=DIR  write <DIR>/checkpoint.ckpt atomically "
          "every\n"
          "                        --checkpoint_every rounds (with "
          "--repeats>1,\n"
          "                        per-repeat subdirectories rep0, rep1, "
          "...)\n"
          "  --checkpoint_every=N  checkpoint cadence in rounds; <=0 = "
          "every\n"
          "                        round (default 0)\n"
          "  --resume              resume from an existing checkpoint in\n"
          "                        --checkpoint_dir; the resumed run is\n"
          "                        bit-identical to an uninterrupted one\n"
          "  --halt_after_round=N  stop after N rounds (checkpointing "
          "first);\n"
          "                        emulates a mid-run kill for resume "
          "testing\n"
          "  --fail_dropout=F      per-(round,client) dropout probability:\n"
          "                        sampled but never reports (default 0)\n"
          "  --fail_straggler=F    straggler probability: trains fully but "
          "the\n"
          "                        result arrives too late and is "
          "discarded\n"
          "  --fail_crash=F        crash probability: dies mid-round after\n"
          "                        ceil(epochs/2) local epochs, result "
          "discarded\n"
          "  --fail_seed=N         failure-injection seed, independent of "
          "--seed\n"
          "                        (default 0xFA11)\n" +
          AsyncHelpLines();
      break;
    }
    case Role::kServer: {
      text =
          "fedgta_server — distributed FedGTA coordinator\n\n"
          "  --port=N              listening port, 0 = ephemeral (default "
          "5714)\n"
          "  --workers=N           worker processes to accept (default 1)\n"
          "  --aggregators=K       accept K regional aggregator processes\n"
          "                        instead of workers; each owns a "
          "contiguous\n"
          "                        client shard and a slice of the worker\n"
          "                        count, and runs its shard's Eq. 6/7 "
          "plane\n"
          "                        (DESIGN.md §5k). Results are bit-"
          "identical\n"
          "                        to the flat topology. 0 = flat (default "
          "0)\n"
          "  --dataset=NAME        dataset recipe shipped to workers\n"
          "  --model=NAME          gcn sage sgc sign s2gc gbp gamlp\n"
          "  --strategy=NAME       fedavg fedprox fedgta local "
          "(remote-executable set)\n"
          "  --split=METHOD        louvain | metis\n"
          "  --clients=N           number of clients (default 10)\n"
          "  --rounds=N            federated rounds (default 50)\n"
          "  --epochs=N            local epochs per round (default 3)\n"
          "  --hidden=N            hidden width (default 64)\n"
          "  --k=N                 propagation steps (default 3)\n"
          "  --batch=N             minibatch size, 0 = full-batch (default "
          "0)\n"
          "  --participation=F     fraction of clients per round (default "
          "1.0)\n"
          "  --epsilon=F           FedGTA similarity threshold (default "
          "0.3)\n"
          "  --similarity_mode=M   Eq. 6 evaluation: exact | auto | lsh\n"
          "                        (default exact; see run_experiment "
          "--help)\n"
          "  --seed=N              RNG seed (default 42)\n" +
          ThreadHelpLines() + BackendHelpLines() +
          "  --deadline_ms=N       per-RPC straggler deadline (default "
          "120000)\n"
          "  --accept_timeout_ms=N wait per worker connection (default "
          "60000)\n" +
          CompressHelpLines() +
          "  --fail_dropout=F      injected dropout probability (default "
          "0)\n"
          "  --fail_straggler=F    injected straggler probability (default "
          "0)\n"
          "  --fail_crash=F        injected crash probability (default 0)\n"
          "  --fail_seed=N         failure-injection seed (default "
          "0xFA11)\n" +
          AsyncHelpLines() +
          "  --metrics_json=PATH   write the metrics-registry JSON dump,\n"
          "                        including worker.<i>.* / fleet.* rollups\n"
          "                        merged from the piggybacked worker "
          "deltas\n"
          "  --trace_out=PATH      write the server's Chrome trace; combine "
          "with\n"
          "                        per-worker --trace_out files via "
          "trace_merge\n"
          "  --timeline_out=PATH   write the live round timeline as JSON "
          "lines\n"
          "  --status_port=N       serve a line-oriented status endpoint "
          "(round\n"
          "                        progress, worker health/lag, latency\n"
          "                        quantiles); 0 = ephemeral, negative =\n"
          "                        disabled (default -1). Query with e.g.\n"
          "                        `nc HOST N` and type: status | metrics |\n"
          "                        metrics.json | timeline\n";
      break;
    }
    case Role::kWorker: {
      text =
          "fedgta_worker — distributed FedGTA worker process\n\n"
          "The server assigns the wire codec and its top-k (fedgta_server\n"
          "--compress/--compress_topk) and the kernel backend (its\n"
          "--backend): every process of a fleet computes the same floats.\n\n"
          "  --host=ADDR           server address (default 127.0.0.1)\n"
          "  --port=N              server port (default 5714)\n"
          "  --deadline_ms=N       handshake receive deadline (default "
          "120000)\n"
          "  --connect_attempts=N  dial attempts with backoff (default 20)\n"
          "  --idle_timeout_ms=N   serve-loop receive timeout, 0 = wait "
          "forever\n"
          "                        (default 0)\n"
          "  --max_train_requests=N  exit abruptly after N train responses, "
          "like\n"
          "                        a killed process (fault-injection "
          "testing;\n"
          "                        0 = disabled)\n"
          "  --trace_out=PATH      write this worker's Chrome trace; its "
          "spans\n"
          "                        carry the server's trace ids and clock "
          "offset,\n"
          "                        so trace_merge stitches them under the\n"
          "                        server's timeline\n" +
          ThreadHelpLines();
      break;
    }
    case Role::kAggregator: {
      text =
          "fedgta_aggregator — regional aggregator for hierarchical FedGTA\n"
          "\n"
          "Dials the root server, receives a contiguous client shard plus a\n"
          "worker slice via ShardAssign, accepts those workers, and serves\n"
          "the shard's half of the Eq. 7 aggregation (DESIGN.md §5k). It\n"
          "runs the root's kernel backend and forwards it to its workers.\n\n"
          "  --host=ADDR           root server address (default 127.0.0.1)\n"
          "  --port=N              root server port (default 5714)\n"
          "  --listen_port=N       worker-facing listening port, 0 = "
          "ephemeral\n"
          "                        (default 0)\n"
          "  --port_file=PATH      publish \"<worker_port>\\n<agg_index>\\n\" "
          "here\n"
          "                        (atomic rename) once the listener is "
          "bound;\n"
          "                        launch scripts poll it to start the "
          "shard's\n"
          "                        workers\n"
          "  --status_port=N       serve this aggregator's own status "
          "endpoint;\n"
          "                        0 = ephemeral (reported to the root in\n"
          "                        ShardReady), negative = disabled (default "
          "-1)\n"
          "  --deadline_ms=N       uplink handshake receive deadline "
          "(default\n"
          "                        120000)\n"
          "  --connect_attempts=N  dial attempts with backoff (default 20)\n"
          "  --idle_timeout_ms=N   serve-loop receive timeout, 0 = wait "
          "forever\n"
          "                        (default 0)\n"
          "  --trace_out=PATH      write this aggregator's Chrome trace; "
          "its\n"
          "                        spans carry the root's trace ids and "
          "clock\n"
          "                        offset, so trace_merge stitches the "
          "whole\n"
          "                        fleet into one timeline\n" +
          ThreadHelpLines();
      break;
    }
  }
  return text;
}

Result<ExperimentCli> ParseAndValidate(Role role, int argc, char** argv) {
  ExperimentCli cli;
  const unsigned role_bit = RoleBit(role);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      cli.help = true;
      return cli;
    }
    bool matched = false;
    for (const SwitchDef& sw : kSwitches) {
      if ((sw.roles & role_bit) != 0 && std::strcmp(arg, sw.name) == 0) {
        sw.set(cli);
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const FlagDef& flag : kFlags) {
      if ((flag.roles & role_bit) == 0) continue;
      const size_t name_len = std::strlen(flag.name);
      if (std::strncmp(arg, "--", 2) == 0 &&
          std::strncmp(arg + 2, flag.name, name_len) == 0 &&
          arg[2 + name_len] == '=') {
        flag.set(cli, std::string(arg + 2 + name_len + 1));
        matched = true;
        break;
      }
    }
    if (!matched) {
      return InvalidArgumentError("unknown flag: " + std::string(arg) +
                                  " (try --help)");
    }
  }
  cli.selects_backend = role == Role::kRunExperiment || role == Role::kServer;
  FEDGTA_RETURN_IF_ERROR(Validate(role, &cli));
  return cli;
}

Status ApplyRuntimeOptions(const ExperimentCli& cli) {
  if (cli.num_threads > 0) SetGlobalThreadPoolSize(cli.num_threads);
  if (!cli.selects_backend) return OkStatus();
  if (!cli.backend.empty()) {
    FEDGTA_RETURN_IF_ERROR(linalg::SetActiveBackend(cli.backend));
  }
  // Force selection now (flag, env, or default) so the choice is logged and
  // counted before any kernel runs.
  (void)linalg::ActiveBackend();
  return OkStatus();
}

}  // namespace cli
}  // namespace fedgta

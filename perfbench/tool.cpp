/**
 * @file
 * perfbench_tool: the in-process half of the serving benchmark
 * (perfbench/run.py). Every subcommand prints one JSON object on
 * stdout.
 *
 *   perfbench_tool replay RECORDS THREADS PRIME
 *       Output check. RECORDS holds one {"frame","response"} object per
 *       line: a request a daemon answered ok, and its answer. Every
 *       distinct request is run again through a fresh service::Engine
 *       (THREADS threads, one Engine each), and every answer must equal
 *       formatOkResponse of that run byte for byte up to the telemetry
 *       object. PRIME holds one request frame per line whose activity
 *       simulations are run first, as the daemons' set-up did, so the
 *       timed Engine::run calls find the same simulations cached.
 *       Reports the median Engine::run time.
 *
 *   perfbench_tool trace SPEC SPANS
 *       Traced pass. Replays the workload's request sequences in this
 *       process with the workload's connections, pipelining, shards and
 *       worker threads, calling the pipeline's public functions in the
 *       order StackSystem and the server call them. Each call is a span
 *       (name, start, end, parent, request); spans are kept in memory
 *       and written to SPANS at exit. Reports per-layer self time.
 *
 *   perfbench_tool kernels CONFIG
 *       Kernel probe: per-call time of GridModel::apply,
 *       GridModel::applyLinePreconditioner and mg::Hierarchy::applyVCycle
 *       on the model CONFIG describes, with computed bytes moved.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.hpp"
#include "cpu/multicore.hpp"
#include "frontend/hash_ring.hpp"
#include "power/mcpat_lite.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "stack/stack.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/mg/multigrid.hpp"
#include "workloads/profile.hpp"
#include "xylem/config_io.hpp"
#include "xylem/painter.hpp"
#include "xylem/sim_cache.hpp"

namespace {

using namespace xylem;
using Clock = std::chrono::steady_clock;
using service::JsonValue;

double
since(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration<double>(t - origin).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read ", path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

std::string
stripNewline(std::string s)
{
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
    return s;
}

/** Response bytes before the telemetry object: everything a client
 *  acts on. Telemetry carries wall times that differ run to run. */
std::string_view
payloadPrefix(const std::string &line)
{
    const auto pos = line.find("\"telemetry\"");
    return std::string_view(line).substr(
        0, pos == std::string::npos ? line.size() : pos);
}

/** One answered request from the untimed phase. */
struct Record
{
    std::string frame;
    std::string response;
};

std::vector<Record>
readRecords(const std::string &path)
{
    std::vector<Record> out;
    for (const std::string &line : readLines(path)) {
        const JsonValue v = service::parseJson(line);
        out.push_back({stripNewline(v.find("frame")->str()),
                       v.find("response")->str()});
    }
    return out;
}

// ---------------------------------------------------------------------------
// replay: the output check
// ---------------------------------------------------------------------------

void primeSims(const std::vector<std::string> &frames, int threads);

int
replay(const std::string &records_path, int threads,
       const std::string &prime_path)
{
    const std::vector<Record> records = readRecords(records_path);
    primeSims(readLines(prime_path), threads);
    std::vector<service::Request> reqs;
    reqs.reserve(records.size());
    std::map<std::string, std::size_t> first_of_key;
    for (std::size_t i = 0; i < records.size(); ++i) {
        reqs.push_back(service::parseRequest(records[i].frame));
        first_of_key.emplace(service::scenarioKey(reqs.back()), i);
    }
    // Distinct requests grouped by config, so each thread's strided
    // share meets one config after another and builds each system once.
    std::vector<std::size_t> distinct;
    for (const auto &[key, idx] : first_of_key)
        distinct.push_back(idx);
    std::stable_sort(distinct.begin(), distinct.end(),
                     [&](std::size_t a, std::size_t b) {
                         return reqs[a].configText < reqs[b].configText;
                     });

    std::vector<std::optional<service::EvalSummary>> summary(
        records.size());
    std::vector<std::string> failure(records.size());
    std::vector<double> run_s(distinct.size(), 0.0);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            service::EngineOptions opts;
            opts.maxResidentSystems = 2;
            service::Engine engine(opts);
            for (std::size_t j = static_cast<std::size_t>(t);
                 j < distinct.size(); j += static_cast<std::size_t>(threads)) {
                const std::size_t i = distinct[j];
                const auto t0 = Clock::now();
                try {
                    summary[i] = engine.run(reqs[i]);
                } catch (const std::exception &e) {
                    failure[i] = e.what();
                }
                run_s[j] = since(t0, Clock::now());
            }
        });
    for (std::thread &th : pool)
        th.join();

    std::size_t mismatches = 0;
    std::string example;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::size_t src =
            first_of_key.at(service::scenarioKey(reqs[i]));
        std::string expected =
            summary[src] ? service::formatOkResponse(
                               reqs[i], *summary[src],
                               service::RequestTelemetry{})
                         : "replay failed: " + failure[src];
        if (payloadPrefix(expected) != payloadPrefix(records[i].response)) {
            if (mismatches++ == 0)
                example = "served " +
                          std::string(payloadPrefix(records[i].response)) +
                          " replayed " +
                          std::string(payloadPrefix(expected));
        }
    }
    JsonValue::Object out;
    out["checked"] = JsonValue(static_cast<double>(records.size()));
    out["distinct"] = JsonValue(static_cast<double>(distinct.size()));
    out["mismatches"] = JsonValue(static_cast<double>(mismatches));
    out["engine_run_s"] = JsonValue(quantile(run_s, 0.5));
    out["example"] = JsonValue(example);
    std::cout << JsonValue(std::move(out)).dump() << "\n";
    return 0;
}

// ---------------------------------------------------------------------------
// trace: the traced pass
// ---------------------------------------------------------------------------

/** One span of a request. `members` > 1 marks a block solve that
 *  several batched requests share. */
struct Span
{
    const char *name;
    double start;
    double end;
    std::uint64_t request;
    std::size_t members = 1;
};

/** Spans of one request, appended by whichever thread works on it. */
struct Job
{
    std::uint64_t id = 0;
    std::string frame;
    service::Request req;
    bool timed = true;
    double enqueued = 0.0;
    std::vector<Span> spans; ///< [0] is the root "request" span
    std::string response;
    bool done = false;
};

/** Records spans relative to one origin. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    double now() const { return since(origin_, Clock::now()); }

    /** Run `fn` inside a span named `name` on `job`. */
    template <typename Fn>
    auto span(Job &job, const char *name, Fn &&fn)
    {
        const double t0 = now();
        struct Close
        {
            const Tracer &tracer;
            Job &job;
            const char *name;
            double t0;
            ~Close()
            {
                job.spans.push_back({name, t0, tracer.now(), job.id});
            }
        } close{*this, job, name, t0};
        return fn();
    }

    void add(Job &job, const char *name, double t0, double t1,
             std::size_t members = 1) const
    {
        job.spans.push_back({name, t0, t1, job.id, members});
    }

  private:
    Clock::time_point origin_;
};

/** A resident system built span by span: the StackSystem constructor's
 *  three parts. */
struct System
{
    core::SystemConfig cfg;
    stack::BuiltStack stk;
    std::unique_ptr<thermal::GridModel> model;
    std::unique_ptr<power::McPatLite> mcpat;
    thermal::SolverWorkspace workspace;
    std::mutex mutex;
};

std::unique_ptr<System>
buildSystem(const core::SystemConfig &cfg, Tracer &tr, Job &job)
{
    auto sys = std::make_unique<System>();
    sys->cfg = cfg;
    sys->stk = tr.span(job, "stack.build",
                       [&] { return stack::buildStack(cfg.stackSpec); });
    sys->mcpat = std::make_unique<power::McPatLite>(
        cfg.energy, cfg.leakage, power::DvfsTable::standard());
    sys->cfg.cpu.dram.geometry.numDies = cfg.stackSpec.numDramDies;
    if (static_cast<int>(sys->cfg.cpu.coreFreqGHz.size()) !=
        sys->cfg.cpu.numCores)
        sys->cfg.cpu.setUniformFrequency(2.4);
    sys->model = tr.span(job, "thermal.model_build", [&] {
        return std::make_unique<thermal::GridModel>(sys->stk,
                                                    sys->cfg.solver);
    });
    return sys;
}

/** The front half of StackSystem::evaluateAtFreqs, span by span. */
struct FrontHalf
{
    core::SimResultPtr sim;
    power::ProcPower procPower;
    std::optional<thermal::PowerMap> map;
};

FrontHalf
frontHalf(System &sys, const workloads::Profile &profile,
          const std::vector<double> &freqs, Tracer &tr, Job &job)
{
    FrontHalf f;
    cpu::MulticoreConfig sim_cfg = sys.cfg.cpu;
    sim_cfg.coreFreqGHz = freqs;
    f.sim = tr.span(job, "cpu.simulate", [&] {
        return core::cachedSimulate(
            sim_cfg, cpu::allCoresRunning(profile, sys.cfg.cpu.numCores));
    });
    f.procPower = tr.span(job, "power.procpower", [&] {
        return sys.mcpat->procPower(*f.sim, freqs);
    });
    tr.span(job, "xylem.paint", [&] {
        f.map.emplace(sys.stk);
        core::paintProcessorPower(*f.map, sys.stk, f.procPower);
        core::paintDramPower(*f.map, sys.stk, *f.sim, sys.cfg.cpu.dram);
        return 0;
    });
    return f;
}

void
fillTemperatures(service::EvalSummary &out, const System &sys,
                 const thermal::TemperatureField &field)
{
    const auto proc = static_cast<std::size_t>(sys.stk.procMetal);
    out.procHotspotC = field.maxOfLayer(proc);
    out.dramBottomHotspotC = field.maxOfLayer(
        static_cast<std::size_t>(sys.stk.dramMetal.front()));
    out.coreHotspotC.clear();
    for (const auto &core_rect : sys.stk.procDie.cores)
        out.coreHotspotC.push_back(
            field.maxInRect(proc, core_rect, sys.stk.grid.extent()));
}

void
fillPower(service::EvalSummary &out, const FrontHalf &f)
{
    out.procPowerW = f.procPower.total();
    out.dramPowerW = f.sim->dramAveragePowerW();
    out.simSeconds = f.sim->seconds;
}

/** StackSystem::evaluateAtFreqs, span by span. The daemon clears the
 *  warm start before every request, so every solve is cold. */
service::EvalSummary
evaluate(System &sys, const workloads::Profile &profile, double freq,
         Tracer &tr, Job &job)
{
    const std::vector<double> freqs(
        static_cast<std::size_t>(sys.cfg.cpu.numCores), freq);
    FrontHalf f = frontHalf(sys, profile, freqs, tr, job);
    thermal::SolveStats stats;
    thermal::TemperatureField field = tr.span(job, "thermal.solve", [&] {
        return sys.model->solveSteady(*f.map, &stats, nullptr,
                                      &sys.workspace);
    });
    service::EvalSummary out;
    fillPower(out, f);
    fillTemperatures(out, sys, field);
    out.cgIterations = stats.iterations;
    return out;
}

/** StackSystem::evaluateSteadyBatch: per-item front halves, then one
 *  block solve whose span every member carries. */
std::vector<service::EvalSummary>
steadyBatch(System &sys, std::vector<Job *> &jobs, Tracer &tr)
{
    std::vector<FrontHalf> fronts;
    for (Job *job : jobs) {
        const std::vector<double> freqs(
            static_cast<std::size_t>(sys.cfg.cpu.numCores),
            job->req.freqGHz);
        fronts.push_back(frontHalf(sys,
                                   workloads::profileByName(job->req.app),
                                   freqs, tr, *job));
    }
    std::vector<const thermal::PowerMap *> maps;
    for (const FrontHalf &f : fronts)
        maps.push_back(&*f.map);
    std::vector<thermal::SolveStats> stats;
    const double t0 = tr.now();
    std::vector<thermal::TemperatureField> fields =
        sys.model->solveSteadyBatch(maps, &stats, nullptr, &sys.workspace);
    const double t1 = tr.now();
    std::vector<service::EvalSummary> out(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        tr.add(*jobs[k], "thermal.solve", t0, t1, jobs.size());
        fillPower(out[k], fronts[k]);
        fillTemperatures(out[k], sys, fields[k]);
        out[k].cgIterations = stats[k].iterations;
    }
    return out;
}

/** One emulated daemon: a FIFO queue, worker threads, resident
 *  systems. Batch formation follows Server::workerLoop. */
class Shard
{
  public:
    Shard(int workers, Tracer &tr, std::function<void(Job &)> done)
        : tracer_(tr), done_(std::move(done))
    {
        for (int w = 0; w < workers; ++w)
            workers_.emplace_back([this] { workerLoop(); });
    }
    ~Shard()
    {
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            exit_ = true;
        }
        queue_cv_.notify_all();
        for (std::thread &t : workers_)
            t.join();
    }
    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    void submit(Job *job)
    {
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            job->enqueued = tracer_.now();
            queue_.push_back(job);
        }
        queue_cv_.notify_one();
    }

    /** Build the resident system for `job`'s config `times` times
     *  (set-up; the last build stays resident). */
    void prebuild(Job &job, int times)
    {
        for (int i = 0; i < times; ++i) {
            auto sys = buildSystem(job.req.config, tracer_, job);
            std::lock_guard<std::mutex> lock(systems_mutex_);
            systems_[job.req.configText] = std::move(sys);
        }
    }

  private:
    System &systemFor(Job &job)
    {
        // The daemon builds a missing system under the engine's map
        // lock (Engine::slotFor), so do the same.
        std::lock_guard<std::mutex> lock(systems_mutex_);
        auto &slot = systems_[job.req.configText];
        if (!slot)
            slot = buildSystem(job.req.config, tracer_, job);
        return *slot;
    }

    void workerLoop()
    {
        for (;;) {
            std::vector<Job *> batch;
            {
                std::unique_lock<std::mutex> lock(queue_mutex_);
                queue_cv_.wait(lock,
                               [this] { return !queue_.empty() || exit_; });
                if (queue_.empty())
                    return;
                batch.push_back(queue_.front());
                queue_.pop_front();
                const service::Request &lead = batch.front()->req;
                const bool mgcg =
                    lead.config.solver.kind == thermal::SolverKind::CG &&
                    lead.config.solver.preconditioner ==
                        thermal::Preconditioner::Multigrid;
                const std::size_t cap =
                    std::min(static_cast<std::size_t>(std::max(
                                 lead.config.batch.maxRhs, 1)),
                             thermal::kMaxBatchRhs);
                if (lead.query == service::QueryType::Steady &&
                    lead.config.batch.enabled && mgcg)
                    for (auto it = queue_.begin();
                         it != queue_.end() && batch.size() < cap;) {
                        if ((*it)->req.query == service::QueryType::Steady &&
                            (*it)->req.configText == lead.configText) {
                            batch.push_back(*it);
                            it = queue_.erase(it);
                        } else {
                            ++it;
                        }
                    }
            }
            const double picked = tracer_.now();
            for (Job *job : batch)
                tracer_.add(*job, "wait.queue", job->enqueued, picked);
            process(batch);
        }
    }

    void process(std::vector<Job *> &batch)
    {
        Job &lead = *batch.front();
        System &sys = systemFor(lead);
        const double wait0 = tracer_.now();
        std::lock_guard<std::mutex> guard(sys.mutex);
        const double wait1 = tracer_.now();
        for (Job *job : batch)
            tracer_.add(*job, "wait.lock", wait0, wait1);
        std::vector<service::EvalSummary> out;
        if (batch.size() > 1) {
            out = steadyBatch(sys, batch, tracer_);
        } else {
            out.push_back(evaluate(sys,
                                   workloads::profileByName(lead.req.app),
                                   lead.req.freqGHz, tracer_, lead));
        }
        for (std::size_t k = 0; k < batch.size(); ++k) {
            Job &job = *batch[k];
            job.response = tracer_.span(job, "service.format", [&] {
                return service::formatOkResponse(
                    job.req, out[k], service::RequestTelemetry{});
            });
            done_(job);
        }
    }

    Tracer &tracer_;
    std::function<void(Job &)> done_;
    std::mutex systems_mutex_;
    std::unordered_map<std::string, std::unique_ptr<System>> systems_;
    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<Job *> queue_;
    bool exit_ = false;
    std::vector<std::thread> workers_;
};

/** Prime the process-wide sim cache for the frames' (app, freq). */
void
primeSims(const std::vector<std::string> &frames, int threads)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            for (std::size_t i; (i = next++) < frames.size();) {
                const service::Request req =
                    service::parseRequest(frames[i]);
                cpu::MulticoreConfig cfg = req.config.cpu;
                cfg.dram.geometry.numDies =
                    req.config.stackSpec.numDramDies;
                cfg.coreFreqGHz.assign(
                    static_cast<std::size_t>(cfg.numCores), req.freqGHz);
                core::cachedSimulate(
                    cfg, cpu::allCoresRunning(
                             workloads::profileByName(req.app),
                             cfg.numCores));
            }
        });
    for (std::thread &th : pool)
        th.join();
}

std::vector<std::string>
stringArray(const JsonValue *v)
{
    std::vector<std::string> out;
    if (v)
        for (const JsonValue &e : v->array())
            out.push_back(stripNewline(e.str()));
    return out;
}

int
trace(const std::string &spec_path, const std::string &spans_path)
{
    std::ifstream spec_in(spec_path);
    std::stringstream spec_text;
    spec_text << spec_in.rdbuf();
    const JsonValue spec = service::parseJson(spec_text.str());
    const auto num = [&](const char *k) {
        return static_cast<int>(spec.find(k)->number());
    };
    const int connections = num("connections");
    const int pipeline = num("pipeline");
    const int shards = num("shards");
    const int jobs = num("jobs");
    const double budget = spec.find("budget_s")->number();

    // The answers the daemons gave for the same frames, to show the
    // traced pipeline computes what the daemons compute.
    std::unordered_map<std::string, std::string> served;
    for (Record &r : readRecords(spec.find("records")->str()))
        served.emplace(std::move(r.frame), std::move(r.response));

    core::clearSimCache();
    primeSims(readLines(spec.find("prime")->str()), jobs * shards);

    Tracer tracer(Clock::now());
    std::mutex done_mutex;
    std::condition_variable done_cv;
    const auto on_done = [&](Job &job) {
        std::lock_guard<std::mutex> lock(done_mutex);
        job.spans.front().end = tracer.now();
        job.done = true;
        done_cv.notify_all();
    };
    std::vector<std::unique_ptr<Shard>> fleet;
    for (int s = 0; s < shards; ++s)
        fleet.push_back(std::make_unique<Shard>(jobs, tracer, on_done));
    const frontend::HashRing ring(static_cast<std::size_t>(shards));

    std::deque<Job> all; // stable addresses
    std::mutex all_mutex;
    const auto make_job = [&](const std::string &frame, bool timed) -> Job & {
        std::lock_guard<std::mutex> lock(all_mutex);
        Job &job = all.emplace_back();
        job.frame = frame;
        job.timed = timed;
        job.id = all.size();
        job.spans.push_back({"request", tracer.now(), 0.0, job.id});
        return job;
    };
    const auto send = [&](Job &job) {
        job.req = tracer.span(job, "service.parse", [&] {
            return service::parseRequest(job.frame);
        });
        std::size_t shard = 0;
        if (shards > 1)
            shard = tracer.span(job, "frontend.route", [&] {
                return ring.owner(service::scenarioKey(job.req));
            });
        fleet[shard]->submit(&job);
    };
    const auto wait_done = [&](Job &job) {
        std::unique_lock<std::mutex> lock(done_mutex);
        done_cv.wait(lock, [&] { return job.done; });
    };

    // Set-up: on every shard, as the load generator's set-up does,
    // build each warm-up config's system three times (the build-time
    // samples), then run the warm-up request.
    for (const std::string &frame : stringArray(spec.find("warm")))
        for (const auto &shard : fleet) {
            Job &job = make_job(frame, false);
            job.req = service::parseRequest(frame);
            shard->prebuild(job, 3);
            shard->submit(&job);
            wait_done(job);
        }

    const double deadline = tracer.now() + budget;
    const JsonValue::Array &seqs = spec.find("sequences")->array();
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c)
        clients.emplace_back([&, c] {
            // Start the connections 10 ms apart, as the load
            // generator's do, or their first requests would all queue
            // at once and form a batch no daemon run sees.
            std::this_thread::sleep_for(std::chrono::milliseconds(10 * c));
            const std::vector<std::string> frames =
                stringArray(&seqs[static_cast<std::size_t>(c)]);
            std::deque<Job *> outstanding;
            std::size_t next = 0;
            for (;;) {
                while (static_cast<int>(outstanding.size()) < pipeline &&
                       next < frames.size() && tracer.now() < deadline) {
                    Job &job = make_job(frames[next++], true);
                    send(job);
                    outstanding.push_back(&job);
                }
                if (outstanding.empty())
                    return;
                // Replies may come back out of order: take any.
                std::unique_lock<std::mutex> lock(done_mutex);
                done_cv.wait(lock, [&] {
                    return std::any_of(outstanding.begin(),
                                       outstanding.end(),
                                       [](Job *j) { return j->done; });
                });
                outstanding.erase(
                    std::remove_if(outstanding.begin(), outstanding.end(),
                                   [](Job *j) { return j->done; }),
                    outstanding.end());
            }
        });
    for (std::thread &t : clients)
        t.join();
    fleet.clear();

    // Per-request layer self time: spans of one request never overlap,
    // so a layer's self time is the sum of its spans, and what no span
    // covers is "other". "wait" is time a request waited for a worker
    // (wait.queue) or for its resident system's lock (wait.lock); the
    // other layers are busy time.
    static const char *const kLayers[] = {"wait",    "service", "frontend",
                                          "stack",   "thermal", "cpu",
                                          "power",   "xylem"};
    std::map<std::string, std::vector<double>> self;
    std::map<std::string, double> total;
    std::map<std::string, std::vector<double>> calls;
    std::vector<double> request_s;
    double request_total = 0.0, other_total = 0.0;
    std::size_t compared = 0, divergent = 0;
    for (const Job &job : all) {
        std::map<std::string, double> mine;
        double covered = 0.0;
        for (std::size_t i = 1; i < job.spans.size(); ++i) {
            const Span &s = job.spans[i];
            const double d = s.end - s.start;
            const std::string name = s.name;
            // A block solve's span is carried by each member; per call
            // it counts once, split over its columns.
            calls[name].push_back(d / static_cast<double>(s.members));
            mine[name.substr(0, name.find('.'))] += d;
            covered += d;
        }
        if (!job.timed)
            continue;
        const double req = job.spans.front().end - job.spans.front().start;
        request_s.push_back(req);
        request_total += req;
        other_total += std::max(0.0, req - covered);
        for (const char *layer : kLayers) {
            self[layer].push_back(mine[layer]);
            total[layer] += mine[layer];
        }
        const auto it = served.find(job.frame);
        if (it != served.end()) {
            ++compared;
            divergent += payloadPrefix(it->second) !=
                         payloadPrefix(job.response);
        }
    }

    {
        std::ofstream out(spans_path, std::ios::trunc);
        std::size_t index = 0;
        for (const Job &job : all) {
            const std::size_t root = index;
            for (const Span &s : job.spans) {
                JsonValue::Object o;
                o["name"] = JsonValue(s.name);
                o["start"] = JsonValue(s.start);
                o["end"] = JsonValue(s.end);
                o["parent"] = index == root
                                  ? JsonValue()
                                  : JsonValue(static_cast<double>(root));
                o["request"] = JsonValue(static_cast<double>(s.request));
                out << JsonValue(std::move(o)).dump() << "\n";
                ++index;
            }
        }
    }

    JsonValue::Object layers;
    for (const char *layer : kLayers) {
        JsonValue::Object l;
        l["self_p50_s"] = JsonValue(quantile(self[layer], 0.5));
        l["self_p95_s"] = JsonValue(quantile(self[layer], 0.95));
        l["share"] = JsonValue(request_total > 0.0
                                   ? total[layer] / request_total
                                   : 0.0);
        layers[layer] = JsonValue(std::move(l));
    }
    JsonValue::Object per_call;
    for (const auto &[name, v] : calls)
        per_call[name] = JsonValue(quantile(v, 0.5));
    JsonValue::Object out;
    out["requests"] = JsonValue(static_cast<double>(request_s.size()));
    out["request_s"] = JsonValue(quantile(request_s, 0.5));
    out["other_frac"] = JsonValue(
        request_total > 0.0 ? other_total / request_total : 0.0);
    out["layers"] = JsonValue(std::move(layers));
    out["per_call_s"] = JsonValue(std::move(per_call));
    out["compared"] = JsonValue(static_cast<double>(compared));
    out["divergent"] = JsonValue(static_cast<double>(divergent));
    std::cout << JsonValue(std::move(out)).dump() << "\n";
    return 0;
}

// ---------------------------------------------------------------------------
// kernels: the thermal kernel probe
// ---------------------------------------------------------------------------

/** Median per-call seconds of `fn` over repetitions worth ~`budget`. */
template <typename Fn>
double
timePerCall(Fn &&fn, double budget)
{
    fn(); // first touch
    std::vector<double> samples;
    const auto stop = Clock::now() + std::chrono::duration_cast<
                                         Clock::duration>(
                                         std::chrono::duration<double>(
                                             budget));
    while (samples.size() < 5 || Clock::now() < stop) {
        const auto t0 = Clock::now();
        fn();
        samples.push_back(since(t0, Clock::now()));
    }
    return quantile(samples, 0.5);
}

int
kernels(const std::string &config_path)
{
    const core::SystemConfig cfg = core::loadSystemConfig(config_path);
    const stack::BuiltStack stk = stack::buildStack(cfg.stackSpec);
    const thermal::GridModel model(stk, cfg.solver);
    const thermal::mg::Hierarchy *mgh = model.multigrid();
    if (!mgh)
        fatal("kernel probe needs a multigrid-preconditioned config");

    // Solve once with an explicit workspace: that leaves the fine line
    // factorisation and the coarse factors the V-cycle reads in it.
    thermal::PowerMap map(stk);
    for (const auto &core_rect : stk.procDie.cores)
        map.deposit(stk.procMetal, core_rect, 10.0);
    thermal::SolverWorkspace ws;
    model.solveSteady(map, nullptr, nullptr, &ws);

    const std::size_t n = model.numNodes();
    const std::size_t cells = model.cellsPerLayer();
    const std::size_t layers = model.numLayers();
    const std::size_t grid = cells * layers;
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = 1.0 + static_cast<double>((i * 2654435761u) % 1000) * 1e-3;

    // Computed bytes: each array the kernel streams, counted once per
    // pass, from the array sizes (8-byte doubles). Periphery nodes and
    // the few periphery rim arrays are left out.
    const double vec = 8.0 * static_cast<double>(grid);
    const double vert = 8.0 * static_cast<double>((layers - 1) * cells);
    // apply: x, y, diagonal, ground, vertical and two lateral
    // conductance arrays.
    const double apply_bytes = 4.0 * vec + vert + 2.0 * vec;
    // applyLinePreconditioner refactors and solves: factor reads the
    // diagonal and vertical conductances and writes two factor arrays;
    // the forward sweep reads r, one factor, vertical and writes z; the
    // back sweep reads z twice-over (read + write), the other factor,
    // and r for the fused dot.
    const double line_bytes =
        (3.0 * vec + vert) + (3.0 * vec + vert) + 4.0 * vec;
    // One V-cycle per level: 3 smoothing sweeps (apply + residual +
    // line solve + update) plus the coarse-grid-correction apply,
    // residual and transfers — about 84 vector-lengths on the fine
    // level; each coarse level repeats it on its own node count.
    double level_nodes = static_cast<double>(grid);
    for (std::size_t k = 1; k < mgh->numLevels(); ++k)
        level_nodes += static_cast<double>(mgh->coarseNodes(k));
    const double vcycle_bytes = 84.0 * 8.0 * level_nodes;

    const double budget = 0.4;
    const double apply_s =
        timePerCall([&] { model.apply(x, y); }, budget);
    const double line_s = timePerCall(
        [&] { model.applyLinePreconditioner(x, y); }, budget);
    const double vcycle_s = timePerCall(
        [&] {
            mgh->applyVCycle(x.data(), y.data(), nullptr, ws, nullptr);
        },
        budget);

    JsonValue::Object out;
    const auto kernel = [&](const char *name, double s, double bytes,
                            double working_set) {
        JsonValue::Object k;
        k["s"] = JsonValue(s);
        k["bytes_computed"] = JsonValue(bytes);
        k["gbps_computed"] = JsonValue(bytes / s / 1e9);
        k["working_set_bytes"] = JsonValue(working_set);
        out[name] = JsonValue(std::move(k));
    };
    kernel("apply", apply_s, apply_bytes, apply_bytes);
    kernel("line_precond", line_s, line_bytes, 5.0 * vec + vert);
    // V-cycle working set: per level about 12 vector-lengths — r, z and
    // three scratch vectors, two line factors, five conductance arrays.
    kernel("vcycle", vcycle_s, vcycle_bytes, 12.0 * 8.0 * level_nodes);
    out["nodes"] = JsonValue(static_cast<double>(n));
    out["layers"] = JsonValue(static_cast<double>(layers));
    out["cells_per_layer"] = JsonValue(static_cast<double>(cells));
    out["mg_levels"] = JsonValue(static_cast<double>(mgh->numLevels()));
    std::cout << JsonValue(std::move(out)).dump() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    xylem::setVerbose(false);
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 4 && args[0] == "replay")
            return replay(args[1], std::stoi(args[2]), args[3]);
        if (args.size() == 3 && args[0] == "trace")
            return trace(args[1], args[2]);
        if (args.size() == 2 && args[0] == "kernels")
            return kernels(args[1]);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_tool: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "usage: perfbench_tool replay RECORDS THREADS PRIME\n"
                 "       perfbench_tool trace SPEC SPANS\n"
                 "       perfbench_tool kernels CONFIG\n";
    return 2;
}

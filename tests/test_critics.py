import json
import socket
import ssl
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancritic.critics import (
    CriticBackend,
    CriticConfig,
    CritiqueLabel,
    CritiqueVerdict,
    LlmCritic,
    MockCritic,
    OracleCritic,
    extract_verdict,
    make_critic,
    self_consistency,
)
from plancritic.llm import ChatClient, EndpointConfig, MalformedResponse, TransportError
from plancritic.pddl import Plan
from plancritic.prompting import MissingPlaceholderValue, TemplateId, build_critique_prompt

C = CritiqueLabel.CORRECT
W = CritiqueLabel.WRONG
G = CritiqueLabel.GOAL_NOT_REACHED


class TestExtractVerdict:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("I think the plan is correct", C),
            ("clearly the plan is wrong", W),
            ("sadly, goal not reached", G),
            ("The Plan Is Correct", C),
            ("GOAL NOT REACHED!!", G),
            ("no verdict here at all", W),
            ("", W),
        ],
    )
    def test_single_phrase(self, text, expected):
        assert extract_verdict(text) is expected

    def test_last_occurrence_wins(self):
        text = "the plan is correct... wait, no: the plan is wrong"
        assert extract_verdict(text) is W
        text = "the plan is wrong — on reflection the plan is correct"
        assert extract_verdict(text) is C

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["the plan is correct", "the plan is wrong", "goal not reached", "filler"]
            ),
            min_size=0,
            max_size=6,
        )
    )
    def test_order_stable(self, pieces):
        text = " and then ".join(pieces)
        phrases = [p for p in pieces if p != "filler"]
        expected = {
            "the plan is correct": C,
            "the plan is wrong": W,
            "goal not reached": G,
        }[phrases[-1]] if phrases else W
        assert extract_verdict(text) is expected


def reference_vote(labels):
    """Two-stage majority: correct versus not-correct first (ties are wrong),
    then the not-correct flavor (ties are wrong again)."""
    n_correct = sum(1 for l in labels if l is C)
    n_other = len(labels) - n_correct
    if n_correct > n_other:
        return C
    if n_correct == n_other:
        return W
    n_gnr = sum(1 for l in labels if l is G)
    n_wrong = n_other - n_gnr
    return G if n_gnr > n_wrong else W


class TestSelfConsistency:
    @pytest.mark.parametrize(
        "labels,expected",
        [
            ([C], C),
            ([W], W),
            ([G], G),
            ([C, W], W),  # tie resolves to wrong
            ([C, C, W, W, C], C),
            ([C, C, W], C),
            ([W, G, G], G),
            ([W, W, G], W),
            ([C, W, G], W),  # not-correct wins, flavors tie -> wrong
            ([C, C, G, G], W),  # top-level tie
        ],
    )
    def test_cases(self, labels, expected):
        assert self_consistency(labels) is expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self_consistency([])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([C, W, G]), min_size=1, max_size=5), st.randoms())
    def test_permutation_invariant_and_matches_reference(self, labels, rnd):
        expected = reference_vote(labels)
        assert self_consistency(labels) is expected
        shuffled = list(labels)
        rnd.shuffle(shuffled)
        assert self_consistency(shuffled) is expected


class TestCritiqueVerdict:
    def test_tally_and_representative_text(self):
        samples = [(W, "first wrong"), (C, "yes"), (W, "second wrong")]
        verdict = CritiqueVerdict.from_samples(samples)
        assert verdict.label is W
        assert verdict.sample_count == 3
        assert verdict.votes == {C: 1, W: 2}
        assert sum(verdict.votes.values()) == verdict.sample_count
        assert verdict.text == "first wrong"  # first sample matching the outcome


class TestCriticConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CriticConfig(self_consistency=0)
        with pytest.raises(ValueError):
            CriticConfig(false_positive=1.5)
        with pytest.raises(ValueError):
            CriticConfig(false_negative=-0.1)

    def test_effective_temperature(self):
        assert CriticConfig(self_consistency=1).effective_temperature == 0.0
        assert CriticConfig(self_consistency=5).effective_temperature == 0.7
        assert CriticConfig(self_consistency=5, temperature=0.2).effective_temperature == 0.2

    def test_llm_template_must_render(self):
        llm = {"backend": CriticBackend.LLM, "base_url": "http://x", "model": "m"}
        with pytest.raises(MissingPlaceholderValue):
            CriticConfig(**llm, template=TemplateId.CRITIQUE_FEWSHOT)
        with pytest.raises(ValueError):
            CriticConfig(**llm, template=TemplateId.PLAN_FEWSHOT)
        with pytest.raises(ValueError):
            CriticConfig(**llm, exemplars=("walkthrough",))
        CriticConfig(**llm, template=TemplateId.CRITIQUE_FEWSHOT, exemplars=("walkthrough",))
        # critics that render no prompt ignore the template
        CriticConfig(backend=CriticBackend.ORACLE, template=TemplateId.CRITIQUE_FEWSHOT)

    def test_string_values_are_checked(self):
        llm = {"backend": "llm", "base_url": "http://x", "model": "m"}
        with pytest.raises(MissingPlaceholderValue):
            CriticConfig(**llm, template="critique_fewshot")
        with pytest.raises(ValueError):
            CriticConfig(**llm, template="plan_fewshot")
        with pytest.raises(ValueError):
            CriticConfig(backend="judge")

    def test_fields_are_coerced(self):
        config = CriticConfig(
            backend="llm", base_url="http://x", model="m",
            template="critique_fewshot", exemplars=["walkthrough"],
        )
        assert config.backend is CriticBackend.LLM
        assert config.template is TemplateId.CRITIQUE_FEWSHOT
        assert config.exemplars == ("walkthrough",)
        assert config == CriticConfig(
            backend=CriticBackend.LLM, base_url="http://x", model="m",
            template=TemplateId.CRITIQUE_FEWSHOT, exemplars=("walkthrough",),
        )
        assert isinstance(make_critic(config), LlmCritic)

    def test_make_critic_dispatch(self):
        assert isinstance(make_critic(CriticConfig(backend=CriticBackend.ORACLE)), OracleCritic)
        assert isinstance(make_critic(CriticConfig(backend=CriticBackend.MOCK)), MockCritic)
        assert isinstance(
            make_critic(CriticConfig(backend=CriticBackend.LLM, base_url="http://x", model="m")),
            LlmCritic,
        )


class TestOracleCritic:
    def test_three_outcomes(self, bw_domain, bw5_problem, wrong_plan, correct_plan):
        critic = OracleCritic()
        ok = critic.critique(bw_domain, bw5_problem, correct_plan, problem_id="p", iteration=0)
        assert ok.label is C
        assert "the plan is correct" in ok.text
        bad = critic.critique(bw_domain, bw5_problem, wrong_plan, problem_id="p", iteration=0)
        assert bad.label is W
        assert "step 9" in bad.text
        short = critic.critique(
            bw_domain, bw5_problem, Plan(correct_plan.steps[:-1]), problem_id="p", iteration=0
        )
        assert short.label is G

    def test_votes_scale_with_n(self, bw_domain, bw5_problem, correct_plan):
        critic = OracleCritic(CriticConfig(backend=CriticBackend.ORACLE, self_consistency=3))
        verdict = critic.critique(
            bw_domain, bw5_problem, correct_plan, problem_id="p", iteration=0
        )
        assert verdict.sample_count == 3
        assert verdict.votes == {C: 3}


class TestMockCritic:
    def test_zero_rates_match_oracle(self, bw_domain, bw5_problem, wrong_plan, correct_plan):
        critic = MockCritic(CriticConfig(backend=CriticBackend.MOCK))
        for plan, expected in ((correct_plan, C), (wrong_plan, W)):
            verdict = critic.critique(bw_domain, bw5_problem, plan, problem_id="p", iteration=0)
            assert verdict.label is expected

    def test_forced_flips(self, bw_domain, bw5_problem, wrong_plan, correct_plan):
        fp = MockCritic(CriticConfig(backend=CriticBackend.MOCK, false_positive=1.0))
        assert (
            fp.critique(bw_domain, bw5_problem, wrong_plan, problem_id="p", iteration=0).label
            is C
        )
        fn = MockCritic(CriticConfig(backend=CriticBackend.MOCK, false_negative=1.0))
        assert (
            fn.critique(bw_domain, bw5_problem, correct_plan, problem_id="p", iteration=0).label
            is W
        )

    def test_deterministic_per_key(self, bw_domain, bw5_problem, correct_plan):
        config = CriticConfig(backend=CriticBackend.MOCK, false_negative=0.5, seed=42)
        a, b = MockCritic(config), MockCritic(config)
        for iteration in range(8):
            va = a.critique(
                bw_domain, bw5_problem, correct_plan, problem_id="x", iteration=iteration
            )
            vb = b.critique(
                bw_domain, bw5_problem, correct_plan, problem_id="x", iteration=iteration
            )
            assert va.label is vb.label

    def test_iterations_draw_independently(self, bw_domain, bw5_problem, correct_plan):
        config = CriticConfig(backend=CriticBackend.MOCK, false_negative=0.5, seed=7)
        critic = MockCritic(config)
        labels = {
            critic.critique(
                bw_domain, bw5_problem, correct_plan, problem_id="x", iteration=i
            ).label
            for i in range(30)
        }
        assert labels == {C, W}  # both outcomes appear across iterations

    def test_formats_no_trace(self, bw_domain, bw5_problem, wrong_plan, correct_plan, monkeypatch):
        from plancritic import critics

        calls = []
        real = critics.format_trace
        monkeypatch.setattr(critics, "format_trace", lambda result: calls.append(1) or real(result))
        short = Plan(correct_plan.steps[:-1])
        mock = MockCritic(CriticConfig(backend=CriticBackend.MOCK, self_consistency=3))
        oracle = OracleCritic()
        for plan in (correct_plan, wrong_plan, short):
            verdict = mock.critique(bw_domain, bw5_problem, plan, problem_id="p", iteration=0)
            truth = oracle.critique(bw_domain, bw5_problem, plan, problem_id="p", iteration=0)
            assert verdict.label is truth.label
        assert len(calls) == 3  # the oracle's three critiques only


# ---------------------------------------------------------------------------
# LLM critic against a local fake endpoint


def chat_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


class FakeEndpoint:
    """Local chat-completions server replaying a scripted response list.

    With ``keep_alive`` it speaks HTTP/1.1 and keeps connections open
    between requests; each request records the client port it came from.
    """

    def __init__(self, keep_alive: bool = False):
        # (status:int, body:str) or (status, body, headers:dict); last entry repeats
        self.script = []
        self.requests = []
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length))
                endpoint.requests.append(
                    {"path": self.path, "payload": payload,
                     "auth": self.headers.get("Authorization"), "port": self.client_address[1]}
                )
                index = min(len(endpoint.requests) - 1, len(endpoint.script) - 1)
                status, body, *headers = endpoint.script[index]
                data = body.encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (headers[0] if headers else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.block_on_close = False  # kept-alive connections outlive the test
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def endpoint():
    ep = FakeEndpoint()
    yield ep
    ep.close()


def llm_critic(endpoint, n=1):
    config = CriticConfig(
        backend=CriticBackend.LLM,
        base_url=endpoint.url,
        model="fake-model",
        self_consistency=n,
        max_concurrency=1,  # keep scripted responses in order
    )
    client = ChatClient(EndpointConfig(base_url=endpoint.url, model="fake-model"), backoff=0.01)
    return LlmCritic(config, client)


class TestLlmCritic:
    def test_single_sample(self, endpoint, bw_domain, bw5_problem, wrong_plan, monkeypatch):
        monkeypatch.setenv("PLANCRITIC_API_KEY", "secret-key")
        endpoint.script = [(200, chat_body("I checked carefully. the plan is wrong"))]
        critic = llm_critic(endpoint)
        verdict = critic.critique(bw_domain, bw5_problem, wrong_plan, problem_id="p", iteration=0)
        assert verdict.label is W
        assert verdict.text.endswith("the plan is wrong")
        prompt = build_critique_prompt(
            TemplateId.CRITIQUE_0SHOT_DD, bw_domain, bw5_problem, wrong_plan
        )
        assert verdict.prompt_chars == len(prompt)
        request = endpoint.requests[0]
        assert request["path"] == "/chat/completions"
        assert request["auth"] == "Bearer secret-key"
        assert request["payload"]["messages"] == [{"role": "user", "content": prompt}]
        assert request["payload"]["model"] == "fake-model"
        assert request["payload"]["temperature"] == 0.0

    def test_self_consistency_votes(self, endpoint, bw_domain, bw5_problem, wrong_plan):
        endpoint.script = [
            (200, chat_body("the plan is correct")),
            (200, chat_body("the plan is wrong")),
            (200, chat_body("the plan is wrong")),
        ]
        critic = llm_critic(endpoint, n=3)
        verdict = critic.critique(
            bw_domain, bw5_problem, wrong_plan, problem_id="p", iteration=0
        )
        assert verdict.label is W
        assert verdict.votes == {C: 1, W: 2}
        assert len(endpoint.requests) == 3
        # N>1 defaults to a nonzero sampling temperature
        assert endpoint.requests[0]["payload"]["temperature"] == 0.7

    def test_retry_then_success(self, endpoint, bw_domain, bw5_problem, wrong_plan):
        endpoint.script = [
            (500, "whoops"),
            (200, chat_body("goal not reached")),
        ]
        critic = llm_critic(endpoint)
        verdict = critic.critique(
            bw_domain, bw5_problem, wrong_plan, problem_id="p", iteration=0
        )
        assert verdict.label is G
        assert len(endpoint.requests) == 2

    def test_transport_error_after_retries(self, endpoint, bw_domain, bw5_problem, wrong_plan):
        endpoint.script = [(503, "down")]
        critic = llm_critic(endpoint)
        with pytest.raises(TransportError):
            critic.critique(
                bw_domain, bw5_problem, wrong_plan, problem_id="p", iteration=0
            )
        assert len(endpoint.requests) == 3  # all retries consumed

    def test_non_retryable_client_error(self, endpoint, bw_domain, bw5_problem, wrong_plan):
        endpoint.script = [(401, "bad key")]
        critic = llm_critic(endpoint)
        with pytest.raises(TransportError):
            critic.critique(
                bw_domain, bw5_problem, wrong_plan, problem_id="p", iteration=0
            )
        assert len(endpoint.requests) == 1  # fails fast, no retry

    def test_malformed_response(self, endpoint, bw_domain, bw5_problem, wrong_plan):
        endpoint.script = [(200, json.dumps({"unexpected": True}))]
        critic = llm_critic(endpoint)
        with pytest.raises(MalformedResponse):
            critic.critique(
                bw_domain, bw5_problem, wrong_plan, problem_id="p", iteration=0
            )


    def test_votes_reuse_connections_across_critiques(self, bw_domain, bw5_problem, wrong_plan):
        endpoint = FakeEndpoint(keep_alive=True)
        endpoint.script = [(200, chat_body("the plan is wrong"))]
        config = CriticConfig(
            backend=CriticBackend.LLM,
            base_url=endpoint.url,
            model="fake-model",
            self_consistency=3,
            max_concurrency=3,
        )
        critic = LlmCritic(config)
        try:
            for i in range(4):
                verdict = critic.critique(
                    bw_domain, bw5_problem, wrong_plan, problem_id="p", iteration=i
                )
                assert verdict.votes == {W: 3}
        finally:
            critic.close()
            endpoint.close()
        assert len(endpoint.requests) == 12
        assert len({r["port"] for r in endpoint.requests}) <= config.max_concurrency


class TestChatClient:
    def test_no_sleep_after_the_last_attempt(self, endpoint, monkeypatch):
        endpoint.script = [(503, "down")]
        sleeps = []
        monkeypatch.setattr("plancritic.llm.time.sleep", sleeps.append)
        client = ChatClient(EndpointConfig(base_url=endpoint.url, model="m"), backoff=0.5)
        with pytest.raises(TransportError):
            client.complete("judge", 0.0, 16)
        assert len(endpoint.requests) == 3
        assert sleeps == [0.5, 1.0]  # between attempts only

    @pytest.mark.parametrize(
        "retry_after,expected",
        [("7", [7, 7]), ("0", [0, 0]), ("-3", [0.5, 1.0]), ("1.5", [0.5, 1.0]),
         ("Wed, 21 Oct 2026 07:28:00 GMT", [0.5, 1.0])],
    )
    def test_retry_after(self, endpoint, monkeypatch, retry_after, expected):
        endpoint.script = [(429, "slow down", {"Retry-After": retry_after})]
        sleeps = []
        monkeypatch.setattr("plancritic.llm.time.sleep", sleeps.append)
        client = ChatClient(EndpointConfig(base_url=endpoint.url, model="m"), backoff=0.5)
        with pytest.raises(TransportError):
            client.complete("judge", 0.0, 16)
        assert sleeps == expected

    def test_retry_after_then_success(self, endpoint, monkeypatch):
        endpoint.script = [(503, "busy", {"Retry-After": "2"}), (200, chat_body("ok"))]
        sleeps = []
        monkeypatch.setattr("plancritic.llm.time.sleep", sleeps.append)
        client = ChatClient(EndpointConfig(base_url=endpoint.url, model="m"), backoff=0.5)
        assert client.complete("judge", 0.0, 16) == "ok"
        assert sleeps == [2]

    def test_sequential_calls_reuse_one_connection(self):
        endpoint = FakeEndpoint(keep_alive=True)
        endpoint.script = [(200, chat_body("ok"))]
        try:
            client = ChatClient(EndpointConfig(base_url=endpoint.url, model="m"))
            for _ in range(4):
                assert client.complete("judge", 0.0, 16) == "ok"
        finally:
            endpoint.close()
        assert len(endpoint.requests) == 4
        assert len({r["port"] for r in endpoint.requests}) == 1

    def test_threads_do_not_share_a_session(self):
        endpoint = FakeEndpoint(keep_alive=True)
        endpoint.script = [(200, chat_body("ok"))]
        client = ChatClient(EndpointConfig(base_url=endpoint.url, model="m"))
        sessions = []

        def work():
            client.complete("judge", 0.0, 16)
            sessions.append(client._session())
            client.complete("judge", 0.0, 16)

        threads = [threading.Thread(target=work) for _ in range(2)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            endpoint.close()
        assert len(endpoint.requests) == 4
        assert len(sessions) == 2 and sessions[0] is not sessions[1]
        # each thread's two calls share its connection
        assert len({r["port"] for r in endpoint.requests}) == 2

    def test_client_error_is_logged(self, endpoint, tmp_path):
        endpoint.script = [(401, "bad key")]
        debug_log = tmp_path / "debug.jsonl"
        config = EndpointConfig(base_url=endpoint.url, model="m", debug_log=str(debug_log))
        with pytest.raises(TransportError):
            ChatClient(config).complete("judge", 0.0, 16)
        [line] = debug_log.read_text().splitlines()
        record = json.loads(line)
        assert record["error"].startswith("HTTP 401")
        assert record["request"]["messages"] == [{"role": "user", "content": "judge"}]


class TestTransport:
    def test_certificate_failure_is_not_retried(self, monkeypatch):
        attempts, sleeps = [], []

        def refuse(connection, path, body, headers):
            attempts.append(path)
            raise ssl.SSLCertVerificationError("certificate verify failed: self-signed certificate")

        monkeypatch.setattr("plancritic.llm._exchange", refuse)
        monkeypatch.setattr("plancritic.llm.time.sleep", sleeps.append)
        client = ChatClient(EndpointConfig(base_url="https://127.0.0.1:9/v1", model="m"))
        with pytest.raises(TransportError, match="after 1 attempt.*certificate verify failed"):
            client.complete("judge", 0.0, 16)
        assert len(attempts) == 1
        assert sleeps == []

    def test_configured_key_is_sent_whatever_the_environment(
        self, endpoint, monkeypatch, tmp_path
    ):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login user password pw\n")
        with socket.socket() as probe:  # a port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            closed_port = probe.getsockname()[1]
        monkeypatch.setenv("NETRC", str(netrc))
        for name in ("HTTP_PROXY", "http_proxy"):
            monkeypatch.setenv(name, f"http://127.0.0.1:{closed_port}")
        for name in ("NO_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("PLANCRITIC_API_KEY", "secret-key")
        endpoint.script = [(200, chat_body("ok"))]
        client = ChatClient(EndpointConfig(base_url=endpoint.url, model="m"), backoff=0.01)
        assert client.complete("judge", 0.0, 16) == "ok"
        [request] = endpoint.requests
        assert request["auth"] == "Bearer secret-key"

    def test_dropped_keep_alive_connection_is_reopened_at_no_cost(self, monkeypatch):
        # answers one request per connection over HTTP/1.1, without announcing
        # "Connection: close", then closes the socket
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.2)
        connections = []
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                with conn:
                    conn.settimeout(10)
                    reader = conn.makefile("rb")
                    headers = {}
                    for line in iter(reader.readline, b"\r\n"):
                        if not line:  # the client went away mid-request
                            break
                        name, _, value = line.decode().partition(":")
                        headers[name.strip().lower()] = value.strip()
                    reader.read(int(headers.get("content-length", 0)))
                    reader.close()
                    connections.append(conn.getpeername())
                    body = chat_body("ok").encode()
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                    )

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        sleeps = []
        monkeypatch.setattr("plancritic.llm.time.sleep", sleeps.append)
        host, port = listener.getsockname()
        client = ChatClient(EndpointConfig(base_url=f"http://{host}:{port}", model="m"))
        try:
            for _ in range(3):
                assert client.complete("judge", 0.0, 16) == "ok"
        finally:
            stop.set()
            server.join(timeout=10)
            listener.close()
        assert not server.is_alive()
        assert sleeps == []
        assert len(connections) == 3

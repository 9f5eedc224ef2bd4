"""Teacher boundary: prompts, JSON extraction, scripted and HTTP proposers."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from skillnet import (
    FailureSummary,
    HttpProposer,
    ProposerRequest,
    ScriptedProposer,
    SkillProposal,
    render_insert_prompt,
)
from skillnet.errors import (
    ConfigInvalid,
    ProposerParseError,
    ProposerUnavailable,
    SchemaViolation,
)
from skillnet.proposer import ProposerParams, extract_json_array


def summary(steps: int = 3, task: str = "clean the mug") -> FailureSummary:
    return FailureSummary(
        task=task, task_type="clean",
        steps=[{"action": f"step {i}", "observation": f"obs {i}"}
               for i in range(steps)])


def insert_request(**kwargs) -> ProposerRequest:
    defaults = dict(kind="insert", failure_summaries=[summary()],
                    existing_titles=["Old skill"],
                    dyn_ids=["dyn_0007", "dyn_0008", "dyn_0009"], max_items=3)
    defaults.update(kwargs)
    return ProposerRequest(**defaults)


class TestProposalSchema:
    def test_valid_roundtrip(self):
        proposal = SkillProposal.from_dict({
            "skill_id": "x", "title": "Check the microwave",
            "principle": "Open it first", "when_to_apply": "Heating tasks"})
        assert proposal.title == "Check the microwave"

    def test_missing_field(self):
        with pytest.raises(SchemaViolation):
            SkillProposal.from_dict({"title": "No principle"})

    def test_title_length_bounds(self):
        with pytest.raises(SchemaViolation):
            SkillProposal.from_dict({
                "skill_id": "x", "title": "y" * 81,
                "principle": "p", "when_to_apply": "w"})
        with pytest.raises(SchemaViolation):
            SkillProposal.from_dict({
                "skill_id": "x", "title": "",
                "principle": "p", "when_to_apply": "w"})

    def test_blank_title(self):
        with pytest.raises(SchemaViolation):
            SkillProposal("p", " \t", "principle", "when").validate()

    def test_empty_principle(self):
        with pytest.raises(SchemaViolation):
            SkillProposal.from_dict({
                "skill_id": "x", "title": "t",
                "principle": "  ", "when_to_apply": "w"})

    @pytest.mark.parametrize("field", ["title", "principle", "when_to_apply", "category"])
    def test_text_that_is_no_utf8_rejected(self, field):
        # JSON spells a lone surrogate as an escape; no file could hold it as UTF-8
        obj = json.loads('{"title": "T", "principle": "P", "when_to_apply": "W", '
                         f'"{field}": "\\ud800 lone"}}')
        assert obj[field] == "\ud800 lone"
        with pytest.raises(SchemaViolation, match="must encode as UTF-8"):
            SkillProposal.from_dict(obj)

    def test_non_object_rejected(self):
        with pytest.raises(SchemaViolation):
            SkillProposal.from_dict(["not", "an", "object"])

    def test_neighbor_assignment_must_be_id_list(self):
        with pytest.raises(SchemaViolation):
            SkillProposal.from_dict({
                "skill_id": "x", "title": "t", "principle": "p",
                "when_to_apply": "w", "neighbor_assignment": "oops"})
        proposal = SkillProposal.from_dict({
            "skill_id": "x", "title": "t", "principle": "p",
            "when_to_apply": "w", "neighbor_assignment": ["n1", "n2"]})
        assert proposal.neighbor_assignment == ["n1", "n2"]

    def test_unknown_request_kind(self):
        with pytest.raises(SchemaViolation):
            ProposerRequest(kind="delete")


class TestScriptedProposer:
    def test_kind_fallback_and_missing_key(self):
        fixture = [SkillProposal("p", "Generic", "Do", "When")]
        proposer = ScriptedProposer({"insert": fixture})
        assert proposer.propose(insert_request()) == fixture
        # a request of the same kind with other content gets the same answer
        other = insert_request(failure_summaries=[summary(steps=5, task="heat the egg")],
                               existing_titles=[], dyn_ids=["dyn_0100"])
        assert proposer.propose(other) == fixture
        assert proposer.propose(ProposerRequest(
            kind="split", skill={"skill_id": "s"})) == []

    def test_respects_max_items(self):
        fixture = [SkillProposal(f"p{i}", f"T{i}", "Do", "When")
                   for i in range(5)]
        proposer = ScriptedProposer({"insert": fixture})
        assert len(proposer.propose(insert_request(max_items=2))) == 2


class TestInsertPrompt:
    def test_single_failure_no_titles(self):
        text = render_insert_prompt([summary()], [], 3, ["dyn_0001"])
        assert "Example 1:" in text
        assert "Example 2:" not in text
        assert "(none)" in text
        assert "Return ONLY a JSON array of skills, no other text." in text

    def test_last_five_steps_only(self):
        text = render_insert_prompt([summary(steps=7)], [], 3, ["dyn_0001"])
        assert "Action: step 0" not in text
        assert "Action: step 1" not in text
        assert "Action: step 2" in text
        assert "Action: step 6" in text

    def test_bounds_and_ids_rendered_verbatim(self):
        text = render_insert_prompt(
            [summary()], ["A title"], 3, ["dyn_0007", "dyn_0008", "dyn_0009"])
        assert "Generate 1-3 NEW actionable skills" in text
        for dyn_id in ("dyn_0007", "dyn_0008", "dyn_0009"):
            assert dyn_id in text
        assert "A title" in text

    def test_failures_capped_at_five(self):
        failures = [summary(task=f"task {i}") for i in range(8)]
        text = render_insert_prompt(failures, [], 3, ["dyn_0001"])
        assert "Example 5:" in text
        assert "Example 6:" not in text


class TestJsonArrayExtraction:
    def test_plain_array(self):
        assert extract_json_array('[{"a": 1}]') == [{"a": 1}]

    def test_prose_wrapped_array(self):
        text = 'Sure! Here are the skills:\n[{"a": 1}, {"b": 2}]\nHope that helps.'
        assert extract_json_array(text) == [{"a": 1}, {"b": 2}]

    def test_skips_decoy_brackets(self):
        text = "indices [1 are not arrays... but this is: [3, 4]"
        assert extract_json_array(text) == [3, 4]

    def test_no_array_raises(self):
        with pytest.raises(ProposerParseError):
            extract_json_array('{"an": "object, not an array"}')


# ----------------------------------------------------------------------
# HTTP stub integration


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # the timeout test disconnects mid-response by design


class _StubHandler(BaseHTTPRequestHandler):
    script: list[dict] = []
    delay: float = 0.0
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        if self.delay:
            time.sleep(self.delay)
        content = json.dumps(self.script)
        payload = json.dumps({
            "choices": [{"message": {"role": "assistant",
                                     "content": f"Here you go:\n{content}"}}]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = _QuietServer(("127.0.0.1", 0), _StubHandler)
    _StubHandler.script = []
    _StubHandler.delay = 0.0
    _StubHandler.requests_seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()


def valid_skill(i: int) -> dict:
    return {"skill_id": f"teacher_{i}", "title": f"Teacher skill {i}",
            "principle": "Look before acting", "when_to_apply": "Always"}


class FakeSession:
    """Stands in for ``requests.Session`` with no network: records each
    ``post`` and answers it with ``status_code`` and a completion holding
    ``content``, or raises ``error``."""

    def __init__(self, status_code: int = 200, content: str = "[]",
                 error: Exception | None = None):
        self.status_code, self.content, self.error = status_code, content, error
        self.calls: list[tuple[str, dict]] = []

    def post(self, url, **kwargs):
        self.calls.append((url, kwargs))
        if self.error is not None:
            raise self.error
        payload = {"choices": [{"message": {"content": self.content}}]}
        return type("Response", (), {"status_code": self.status_code,
                                     "json": lambda _: payload})()


def http_proposer(endpoint, session=None, **settings) -> HttpProposer:
    """An ``HttpProposer`` for the model "stub" at ``endpoint``, the other
    ``ProposerParams`` settings as given or their defaults."""
    settings = {"endpoint": endpoint, "model": "stub", **settings}
    return HttpProposer(ProposerParams(**settings), session)


def degraded_insert(proposer):
    """One checkpoint whose only teacher call is an insert for one failure."""
    from skillnet import EvolutionConfig, SkillGraph, TrajectoryRecord, evolve_step

    failure = TrajectoryRecord(task_id="t", task_type="clean",
                               retrieved_skill_ids=[], success=False)
    return evolve_step(SkillGraph(), [], [failure], proposer, EvolutionConfig())


class TestHttpProposer:
    def test_parses_valid_array(self, stub_server):
        endpoint, handler = stub_server
        handler.script = [valid_skill(i) for i in range(3)]
        proposer = http_proposer(endpoint, timeout=5.0)
        proposals = proposer.propose(insert_request())
        assert [p.title for p in proposals] == [f"Teacher skill {i}"
                                                for i in range(3)]

    def test_the_longest_timeout_allowed_reaches_the_teacher(self, stub_server):
        """``threading.TIMEOUT_MAX`` is the bound: a socket takes it, while
        a timeout of 1e10 s overflows the socket's time_t."""
        endpoint, handler = stub_server
        handler.script = [valid_skill(0)]
        proposer = http_proposer(endpoint, timeout=threading.TIMEOUT_MAX)
        assert [p.title for p in proposer.propose(insert_request())] == [
            "Teacher skill 0"]

    def test_caps_at_max_items(self, stub_server):
        endpoint, handler = stub_server
        handler.script = [valid_skill(i) for i in range(6)]
        proposer = http_proposer(endpoint, timeout=5.0)
        assert len(proposer.propose(insert_request(max_items=3))) == 3

    def test_invalid_entries_dropped(self, stub_server):
        endpoint, handler = stub_server
        handler.script = [valid_skill(0), {"title": "missing fields"},
                          valid_skill(1)]
        proposer = http_proposer(endpoint, timeout=5.0)
        assert len(proposer.propose(insert_request())) == 2

    def test_prompt_carried_in_request_body(self, stub_server):
        endpoint, handler = stub_server
        handler.script = [valid_skill(0)]
        proposer = http_proposer(endpoint, timeout=5.0)
        proposer.propose(insert_request())
        body = handler.requests_seen[-1]
        assert body["model"] == "stub"
        prompt = body["messages"][0]["content"]
        assert "Return ONLY a JSON array" in prompt
        assert "dyn_0007" in prompt

    def test_timeout_maps_to_unavailable(self, stub_server):
        endpoint, handler = stub_server
        handler.delay = 1.0
        proposer = http_proposer(endpoint, timeout=0.15, max_retries=0)
        with pytest.raises(ProposerUnavailable):
            proposer.propose(insert_request())

    def test_dead_endpoint_maps_to_unavailable(self):
        proposer = http_proposer("http://127.0.0.1:9", timeout=0.2, max_retries=1)
        with pytest.raises(ProposerUnavailable):
            proposer.propose(insert_request())

    def test_merge_and_split_flow_through_http(self, stub_server):
        """A full evolution checkpoint drives merge and split requests over
        the wire and applies the teacher's wording."""
        from skillnet import EvolutionConfig, SkillGraph, evolve_step
        from conftest import add_nodes, make_node

        endpoint, handler = stub_server
        handler.script = [valid_skill(i) for i in range(5)]
        graph = SkillGraph()
        # mergeable pair: identical neighborhoods over three shared hubs
        add_nodes(graph, ["m1", "m2"], category="clean")
        for i in range(3):
            add_nodes(graph, [f"h{i}", f"p{i}"], category="clean")
            graph.add_edge("m1", f"h{i}", "co_occur", 0.4)
            graph.add_edge("m2", f"h{i}", "co_occur", 0.4)
            graph.add_edge(f"h{i}", f"p{i}", "co_occur", 0.4)
        # split candidate: mid success, enough usage
        graph.add_skill(make_node("broad", category="clean",
                                  n_use=40, n_succ=12))
        graph.compute_levels()
        proposer = http_proposer(endpoint, timeout=5.0)
        report = evolve_step(graph, [], [], proposer, EvolutionConfig())
        assert report.merged == [("m1", ["m2"])]
        assert graph.nodes["m1"].title == "Teacher skill 0"
        assert len(report.split) == 1 and report.split[0][0] == "broad"
        assert len(report.split[0][1]) == 3  # five offered, capped at three

    def test_render_covers_merge_and_split(self):
        proposer = http_proposer("http://unused")
        merge_prompt = proposer._render(ProposerRequest(
            kind="merge",
            skill_pair=({"skill_id": "a", "title": "A", "principle": "pa",
                         "when_to_apply": "wa"},
                        {"skill_id": "b", "title": "B", "principle": "pb",
                         "when_to_apply": "wb"})))
        assert "SKILL A: A" in merge_prompt and "SKILL B: B" in merge_prompt
        assert "Return ONLY a JSON array" in merge_prompt
        split_prompt = proposer._render(ProposerRequest(
            kind="split",
            skill={"skill_id": "s", "title": "Broad", "principle": "p",
                   "when_to_apply": "w"},
            failure_contexts=["clean: t17"]))
        assert "Broad" in split_prompt and "clean: t17" in split_prompt
        assert "2-3 simpler sub-skills" in split_prompt

    @pytest.mark.parametrize("settings", [
        {"timeout": 0}, {"timeout": -1.0}, {"timeout": float("nan")},
        {"timeout": 1e300}, {"timeout": float("inf")},
        {"temperature": -0.5}, {"temperature": float("nan")}, {"max_retries": -1},
        {"endpoint": None}, {"endpoint": ""},
    ], ids=["timeout-0", "timeout-negative", "timeout-nan", "timeout-huge",
            "timeout-inf", "temperature-negative", "temperature-nan",
            "retries-negative", "no-endpoint", "empty-endpoint"])
    def test_bad_settings_are_refused_when_the_proposer_is_built(self, settings):
        """A setting no request could use is a ConfigInvalid of the build, not
        an error of the first request, which would escape the sub-operation
        and abort the checkpoint."""
        params = ProposerParams(**{"endpoint": "http://teacher.invalid", **settings})
        with pytest.raises(ConfigInvalid):
            HttpProposer(params)

    def test_any_request_exception_maps_to_unavailable(self, caplog):
        """A redirect loop degrades the checkpoint like a timeout does."""
        from skillnet import EvolutionConfig, SkillGraph, TrajectoryRecord, evolve_step

        class RedirectLoop:
            calls = 0

            def post(self, *args, **kwargs):
                self.calls += 1
                raise requests.TooManyRedirects("redirect loop")

        session = RedirectLoop()
        proposer = http_proposer("http://teacher.invalid", session, max_retries=1)
        with pytest.raises(ProposerUnavailable):
            proposer.propose(insert_request())
        assert session.calls == 2
        failure = TrajectoryRecord(task_id="t", task_type="clean",
                                   retrieved_skill_ids=[], success=False)
        report = evolve_step(SkillGraph(), [], [failure], proposer,
                             EvolutionConfig())
        assert report.inserted == []
        assert "insert degraded, proposer unavailable" in caplog.text

    def test_non_200_status_degrades_the_checkpoint(self, caplog):
        session = FakeSession(status_code=503)
        proposer = http_proposer("http://teacher.invalid", session, max_retries=2)
        with pytest.raises(ProposerUnavailable, match="HTTP 503"):
            proposer.propose(insert_request())
        assert len(session.calls) == 1  # a status answer is not retried
        report = degraded_insert(proposer)
        assert report.inserted == []
        assert "insert degraded, proposer unavailable: proposer endpoint returned " \
            "HTTP 503" in caplog.text

    @pytest.mark.parametrize("key", ["sk-test", None], ids=["set", "unset"])
    def test_api_key_env_becomes_a_bearer_header(self, monkeypatch, key):
        if key is None:
            monkeypatch.delenv("TEACHER_KEY", raising=False)
        else:
            monkeypatch.setenv("TEACHER_KEY", key)
        session = FakeSession(content=json.dumps([valid_skill(0)]))
        proposer = http_proposer("http://teacher.invalid/", session,
                                 api_key_env="TEACHER_KEY", timeout=7.0)
        assert [p.title for p in proposer.propose(insert_request())] == ["Teacher skill 0"]
        ((url, kwargs),) = session.calls
        assert url == "http://teacher.invalid/chat/completions"
        assert kwargs["timeout"] == 7.0
        expected = {"Content-Type": "application/json"}
        if key is not None:
            expected["Authorization"] = "Bearer sk-test"
        assert kwargs["headers"] == expected

    @pytest.mark.parametrize("max_retries", [0, 1, 3])
    def test_a_request_exception_is_tried_one_plus_max_retries_times(
            self, caplog, max_retries):
        session = FakeSession(error=requests.ConnectionError("refused"))
        proposer = http_proposer("http://teacher.invalid", session,
                                 max_retries=max_retries)
        with pytest.raises(ProposerUnavailable, match="refused"):
            proposer.propose(insert_request())
        assert len(session.calls) == 1 + max_retries
        session.calls.clear()
        assert degraded_insert(proposer).inserted == []
        assert len(session.calls) == 1 + max_retries
        assert "insert degraded, proposer unavailable: refused" in caplog.text

    @pytest.mark.parametrize("payload, reason", [
        *(({"choices": [{"message": {"content": content}}]}, "not text")
          for content in (None, 5, ["[]"])),
        (RecursionError("maximum recursion depth exceeded"), "malformed completion"),
        ({"choices": [{"message": {"content": "[" * 100000}}]}, "nested too deeply"),
        ({"choices": [{"message": {"content": "[" + "9" * 5000 + "]"}}]},
         "no JSON array"),
    ], ids=["content-None", "content-5", "content-list", "payload-nested-too-deeply",
            "content-nested-too-deeply", "content-integer-too-long"])
    def test_unusable_reply_degrades_the_checkpoint(self, payload, reason, caplog):
        """Content that is not a string, or a reply json cannot decode for its
        depth or an integer's length, is a parse error, so the sub-operation
        degrades instead of aborting the checkpoint."""
        from skillnet import EvolutionConfig, SkillGraph, TrajectoryRecord, evolve_step

        class Completion:
            status_code = 200

            def json(self):
                if isinstance(payload, Exception):
                    raise payload
                return payload

        class UnusableSession:
            def post(self, *args, **kwargs):
                return Completion()

        proposer = http_proposer("http://teacher.invalid", UnusableSession())
        with pytest.raises(ProposerParseError, match=reason):
            proposer.propose(insert_request())
        failure = TrajectoryRecord(task_id="t", task_type="clean",
                                   retrieved_skill_ids=[], success=False)
        report = evolve_step(SkillGraph(), [], [failure], proposer,
                             EvolutionConfig())
        assert report.inserted == []
        assert "insert degraded, unusable teacher reply" in caplog.text
        assert "unavailable" not in caplog.text

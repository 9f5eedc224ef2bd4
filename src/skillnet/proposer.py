"""Teacher-model boundary for skill synthesis.

Evolution never invents skill text itself; it sends insert/merge/split
requests to a proposer and validates what comes back. Two implementations:
a deterministic scripted proposer for tests and simulation, and a thin HTTP
client for an OpenAI-compatible chat-completions endpoint. The engine always
reassigns returned skill ids, so proposer output can never collide with
graph ids.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from threading import TIMEOUT_MAX
from typing import TYPE_CHECKING, Any, Sequence

from .errors import (
    ConfigInvalid,
    ProposerParseError,
    ProposerUnavailable,
    SchemaViolation,
)
from .model import is_blank

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

MAX_TITLE_LENGTH = 80
MAX_FAILURES_PER_REQUEST = 5
STEPS_RENDERED_PER_FAILURE = 5

REQUEST_KINDS = ("insert", "merge", "split")


@dataclass
class ProposerParams:
    """The ``proposer`` config section: how ``HttpProposer`` reaches a teacher."""

    endpoint: str | None = None
    model: str = "teacher"
    api_key_env: str = "SKILLNET_API_KEY"
    timeout: float = 30.0
    temperature: float = 0.0
    max_retries: int = 1

    def validate(self) -> None:
        # a longer wait (inf included) overflows the socket's timeout, which
        # would fail every request with an error that is no ProposerError
        if not 0 < self.timeout <= TIMEOUT_MAX:
            raise ConfigInvalid(
                f"proposer.timeout must be > 0 and at most {TIMEOUT_MAX:.6g} s")
        if not self.temperature >= 0 or self.max_retries < 0:
            raise ConfigInvalid("proposer.temperature and max_retries must be >= 0")


@dataclass
class SkillProposal:
    """One skill record returned by a proposer.

    skill_id is a placeholder; the engine reassigns it. neighbor_assignment
    lists the inherited neighbor ids a split child should take over.
    """

    skill_id: str
    title: str
    principle: str
    when_to_apply: str
    category: str | None = None
    neighbor_assignment: list[str] | None = None

    def validate(self) -> None:
        if is_blank(self.title) or len(self.title) > MAX_TITLE_LENGTH:
            raise SchemaViolation(
                f"title must be non-blank and at most {MAX_TITLE_LENGTH} chars")
        if is_blank(self.principle):
            raise SchemaViolation("principle must be non-blank")
        if not isinstance(self.when_to_apply, str):
            raise SchemaViolation("when_to_apply must be a string")
        if self.category is not None and not isinstance(self.category, str):
            raise SchemaViolation("category must be a string")
        try:  # a lone surrogate, which JSON can spell, is no UTF-8 text
            f"{self.title}{self.principle}{self.when_to_apply}{self.category}".encode()
        except UnicodeEncodeError:
            raise SchemaViolation("skill text must encode as UTF-8") from None
        if self.neighbor_assignment is not None and (
                not isinstance(self.neighbor_assignment, list)
                or not all(isinstance(n, str) for n in self.neighbor_assignment)):
            raise SchemaViolation("neighbor_assignment must be a list of ids")

    @classmethod
    def from_dict(cls, obj: Any) -> "SkillProposal":
        if not isinstance(obj, dict):
            raise SchemaViolation("proposal must be a JSON object")
        try:
            proposal = cls(
                skill_id=str(obj.get("skill_id", "")),
                title=obj["title"],
                principle=obj["principle"],
                when_to_apply=obj["when_to_apply"],
                category=obj.get("category"),
                neighbor_assignment=obj.get("neighbor_assignment"),
            )
        except KeyError as missing:
            raise SchemaViolation(f"proposal missing field {missing}") from None
        proposal.validate()
        return proposal


@dataclass
class FailureSummary:
    """Compact view of one failed trajectory for prompt rendering."""

    task: str
    task_type: str
    steps: list[dict[str, str]]


@dataclass
class ProposerRequest:
    """What the engine asks a proposer to do at one evolution sub-operation."""

    kind: str
    failure_summaries: list[FailureSummary] = field(default_factory=list)
    skill_pair: tuple[dict[str, str], dict[str, str]] | None = None
    skill: dict[str, str] | None = None
    failure_contexts: list[str] = field(default_factory=list)
    existing_titles: list[str] = field(default_factory=list)
    dyn_ids: list[str] = field(default_factory=list)
    max_items: int = 3

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise SchemaViolation(f"unknown request kind {self.kind!r}")
        if self.kind == "merge" and self.skill_pair is None:
            raise SchemaViolation("merge request needs skill_pair")
        if self.kind == "split" and self.skill is None:
            raise SchemaViolation("split request needs skill")


class Proposer:
    """Interface: turn a request into proposals, which evolution validates."""

    def propose(self, request: ProposerRequest) -> list[SkillProposal]:
        raise NotImplementedError


class ScriptedProposer(Proposer):
    """Deterministic fixture-backed proposer.

    Fixtures are keyed by kind (``"insert"``, ``"merge"``, ``"split"``); a
    kind with no fixture yields no proposals. Every request of one kind gets
    the same answer, cut to its ``max_items``.
    """

    def __init__(self, fixtures: dict[str, list[SkillProposal]] | None = None):
        self.fixtures = dict(fixtures or {})

    def propose(self, request: ProposerRequest) -> list[SkillProposal]:
        return list(self.fixtures.get(request.kind, [])[:request.max_items])


# ----------------------------------------------------------------------
# prompt templates

INSERT_PROMPT_HEADER = (
    "Analyze these failed agent trajectories and suggest NEW skills\n"
    "to add to the skill bank.\n"
)

INSERT_PROMPT_FOOTER = (
    "Generate 1-{max_new_skills} NEW actionable skills that would\n"
    "help avoid these failures.\n"
    "Each skill must have: skill_id, title (3-5 words), principle\n"
    "(1-2 sentences), when_to_apply.\n"
    "\n"
    "Use skill_ids: {dyn_id_list}\n"
    "\n"
    "Return ONLY a JSON array of skills, no other text.\n"
)

JSON_ARRAY_INSTRUCTION = "Return ONLY a JSON array of skills, no other text."


def render_insert_prompt(failures: Sequence[FailureSummary],
                         existing_titles: Sequence[str],
                         max_new_skills: int,
                         dyn_ids: Sequence[str]) -> str:
    """Fill the failure-driven insertion template.

    At most five trajectories are rendered, each truncated to its last five
    steps, so prompt size stays bounded regardless of episode length.
    """
    parts = [INSERT_PROMPT_HEADER, "FAILED TRAJECTORIES:"]
    for i, failure in enumerate(failures[:MAX_FAILURES_PER_REQUEST], start=1):
        parts.append(f"Example {i}:")
        parts.append(f"  Task: {failure.task}")
        parts.append(f"  Task Type: {failure.task_type}")
        parts.append(f"  Trajectory (last {STEPS_RENDERED_PER_FAILURE} steps):")
        for step in failure.steps[-STEPS_RENDERED_PER_FAILURE:]:
            parts.append(f"    Action: {step.get('action', '')}")
            parts.append(f"    Observation: {step.get('observation', '')}")
    parts.append("")
    parts.append("EXISTING SKILL TITLES (avoid duplicating these):")
    parts.append(", ".join(existing_titles) if existing_titles else "(none)")
    parts.append("")
    parts.append(INSERT_PROMPT_FOOTER.format(
        max_new_skills=max_new_skills,
        dyn_id_list=", ".join(dyn_ids),
    ))
    return "\n".join(parts)


def render_merge_prompt(first: dict[str, str], second: dict[str, str]) -> str:
    """Ask the teacher to combine two overlapping skills into one."""
    return "\n".join([
        "These two skills overlap heavily and should become one concise skill.",
        "",
        f"SKILL A: {first.get('title', '')}",
        f"  Principle: {first.get('principle', '')}",
        f"  Apply when: {first.get('when_to_apply', '')}",
        f"SKILL B: {second.get('title', '')}",
        f"  Principle: {second.get('principle', '')}",
        f"  Apply when: {second.get('when_to_apply', '')}",
        "",
        "Combine them into exactly ONE skill that keeps the useful content",
        "of both. The skill must have: skill_id, title (3-5 words),",
        "principle (1-2 sentences), when_to_apply.",
        "",
        JSON_ARRAY_INSTRUCTION,
    ])


def render_split_prompt(skill: dict[str, str],
                        failure_contexts: Sequence[str]) -> str:
    """Ask the teacher to decompose a broad skill into ordered sub-skills."""
    lines = [
        "This skill is used often but succeeds rarely; it likely bundles",
        "several distinct sub-strategies.",
        "",
        f"SKILL: {skill.get('title', '')}",
        f"  Principle: {skill.get('principle', '')}",
        f"  Apply when: {skill.get('when_to_apply', '')}",
    ]
    if failure_contexts:
        lines.append("")
        lines.append("CONTEXTS WHERE IT DID NOT HELP:")
        for context in failure_contexts[:MAX_FAILURES_PER_REQUEST]:
            lines.append(f"- {context}")
    lines += [
        "",
        "Decompose it into 2-3 simpler sub-skills, ordered so that each one",
        "should be applied before the next. Each sub-skill must have:",
        "skill_id, title (3-5 words), principle (1-2 sentences),",
        "when_to_apply, and may list neighbor_assignment (ids of the",
        "original skill's neighbors it should take over).",
        "",
        JSON_ARRAY_INSTRUCTION,
    ]
    return "\n".join(lines)


def extract_json_array(text: str) -> list[Any]:
    """Pull the first top-level JSON array out of possibly chatty text."""
    decoder = json.JSONDecoder()
    for i, char in enumerate(text):
        if char != "[":
            continue
        try:
            value, _ = decoder.raw_decode(text[i:])
        except ValueError:  # bad syntax, or an integer too long to convert
            continue
        except RecursionError:  # every later "[" would overflow again
            raise ProposerParseError("proposer response nested too deeply") from None
        if isinstance(value, list):
            return value
    raise ProposerParseError("no JSON array found in proposer response")


class HttpProposer(Proposer):
    """Chat-completions client speaking the proposal JSON contract.

    One request per evolution sub-operation, a single optional retry, and a
    hard timeout. Every transport failure degrades to ProposerUnavailable so
    a checkpoint can always finish without the teacher. The settings are
    the ``proposer`` config section, checked here, so a bad one is a
    ConfigInvalid when the proposer is built, not an error of the first
    request. ``requests`` is imported here, not with the package, so
    commands that never call a teacher do not pay for it.
    """

    def __init__(self, params: ProposerParams,
                 session: requests.Session | None = None):
        params.validate()
        if not params.endpoint:
            raise ConfigInvalid("proposer.endpoint must be set")
        self.params = params
        self.endpoint = params.endpoint.rstrip("/")
        if session is None:
            import requests
            session = requests.Session()
        self.session = session

    def _render(self, request: ProposerRequest) -> str:
        if request.kind == "insert":
            return render_insert_prompt(
                request.failure_summaries, request.existing_titles,
                request.max_items, request.dyn_ids)
        if request.kind == "merge":
            first, second = request.skill_pair
            return render_merge_prompt(first, second)
        return render_split_prompt(request.skill, request.failure_contexts)

    def _post(self, prompt: str) -> str:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.params.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": self.params.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.params.temperature,
        }
        response = self.session.post(
            f"{self.endpoint}/chat/completions",
            json=body, headers=headers, timeout=self.params.timeout)
        if response.status_code != 200:
            raise ProposerUnavailable(
                f"proposer endpoint returned HTTP {response.status_code}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise ProposerParseError(f"malformed completion payload: {exc}") from exc
        if not isinstance(content, str):
            raise ProposerParseError(
                f"completion content is {type(content).__name__}, not text")
        return content

    def propose(self, request: ProposerRequest) -> list[SkillProposal]:
        import requests

        prompt = self._render(request)
        last_error: Exception | None = None
        for _ in range(1 + self.params.max_retries):
            try:
                content = self._post(prompt)
                break
            except requests.RequestException as exc:
                last_error = exc
        else:
            raise ProposerUnavailable(str(last_error))
        proposals: list[SkillProposal] = []
        for obj in extract_json_array(content):
            try:
                proposals.append(SkillProposal.from_dict(obj))
            except SchemaViolation as exc:
                logger.warning("dropping malformed proposal: %s", exc)
        return proposals[:request.max_items]

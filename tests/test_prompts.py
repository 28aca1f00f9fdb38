"""System prompt presets must stay byte-stable; training and eval depend on it."""

import pytest

from convoforge import prompts

VERBOSE_EXPECTED = (
    "You are a helpful assistant. You answer questions in a natural, "
    "conversational tone, like in a spoken conversation. You give short "
    "and concise answers. Your answers must be one to four sentences "
    "long. The Flesch Reading Ease Score is a metric to assess how "
    "difficult a text passage is to understand. Higher scores indicate "
    "text that is easier. Please formulate your answer such that it "
    "would receive a Flesch Reading Ease Score of above 60."
)

CONCISE_EXPECTED = (
    "You are a helpful assistant. You answer questions in a natural, "
    "conversational tone, like in a spoken conversation."
)


def test_concise_preset_is_byte_exact():
    assert prompts.CONCISE_FINETUNE_PROMPT == CONCISE_EXPECTED


def test_verbose_preset_is_byte_exact():
    assert prompts.VERBOSE_BASE_PROMPT == VERBOSE_EXPECTED


def test_verbose_extends_concise():
    # the long prompt is the short one plus scoring instructions
    assert prompts.VERBOSE_BASE_PROMPT.startswith(prompts.CONCISE_FINETUNE_PROMPT)


def test_preset_lookup():
    assert prompts.preset("verbose-base") is prompts.VERBOSE_BASE_PROMPT
    assert prompts.preset("concise-finetune") is prompts.CONCISE_FINETUNE_PROMPT


def test_unknown_preset_lists_known_names():
    with pytest.raises(KeyError, match="concise-finetune"):
        prompts.preset("typo-name")


def test_qa_template_placeholder():
    rendered = prompts.QA_GENERATION_TEMPLATE.format(section_text="SECTION GOES HERE")
    assert "SECTION GOES HERE" in rendered
    assert "{section_text}" not in rendered
    # the strict output contract is spelled out to the model
    assert '"question"' in rendered
    assert '"answer"' in rendered

def test_simplify_template_placeholders():
    rendered = prompts.SIMPLIFY_TEMPLATE.format(question="Q?", answer="A.", feedback="")
    assert "Q?" in rendered
    assert "A." in rendered
    assert "{question}" not in rendered
    assert "{answer}" not in rendered


def test_first_simplify_prompt_keeps_its_bytes():
    # Attempt 1 fills {feedback} with nothing; its prompt predates the feedback.
    rendered = prompts.SIMPLIFY_TEMPLATE.format(question="Q?", answer="A.", feedback="")
    assert rendered == (
        "Rephrase the following answer in a conversational tone, while keeping the "
        "semantic content of the answer the same. Use plain, everyday words and "
        "short sentences, as if you were speaking to a friend.\n\nQuestion: Q?\n\n"
        "Answer: A.\n\nRespond with the rephrased answer only."
    )

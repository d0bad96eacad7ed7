from __future__ import annotations

import pytest

from latentheads import conll
from latentheads.conll import Treebank

from lhr_testutil import fixture_path


@pytest.fixture(scope="session")
def toy_train() -> Treebank:
    return conll.read_conll(fixture_path("toy_train.conllu"))


@pytest.fixture(scope="session")
def toy_dev() -> Treebank:
    return conll.read_conll(fixture_path("toy_dev.conllu"))

"""Fixtures shared by the service tests."""

import pytest

from repro.service.journal import CampaignJournal


@pytest.fixture
def open_journal():
    """``open_journal(path)`` is a CampaignJournal whose append handle is
    closed when the test ends."""
    opened = []

    def open_(path):
        journal = CampaignJournal(path)
        opened.append(journal)
        return journal

    yield open_
    for journal in opened:
        journal.close()

"""Unit tests for the auction house and the negotiation service."""

import pytest

from repro.errors import AuctionError, NegotiationError
from repro.ecommerce.auction import Auction, AuctionHouse, Bid
from repro.ecommerce.negotiation import NegotiationService

from tests.conftest import make_item

ITEM = make_item("lot-1", price=100.0)


class TestBid:
    def test_positive_amount_required(self):
        with pytest.raises(AuctionError):
            Bid(bidder="x", amount=0.0, round_number=1)


class TestAuction:
    def test_bids_must_beat_current_price_plus_increment(self):
        auction = Auction("auction-m-1", ITEM, reserve_price=70.0,
                          starting_price=50.0, increment=5.0)
        auction.place_bid("a", 50.0)
        with pytest.raises(AuctionError):
            auction.place_bid("b", 52.0)
        auction.place_bid("b", 55.0)
        assert auction.current_price == 55.0

    def test_first_bid_must_meet_starting_price(self):
        auction = Auction("auction-m-1", ITEM, reserve_price=70.0, starting_price=50.0)
        with pytest.raises(AuctionError):
            auction.place_bid("a", 40.0)

    def test_close_determines_winner_when_reserve_met(self):
        auction = Auction("auction-m-1", ITEM, reserve_price=60.0,
                          starting_price=50.0, increment=5.0)
        auction.place_bid("a", 50.0)
        auction.place_bid("b", 65.0)
        result = auction.close()
        assert result.winner == "b"
        assert result.winning_bid == 65.0
        assert result.reserve_met

    def test_no_winner_when_reserve_not_met(self):
        auction = Auction("auction-m-1", ITEM, reserve_price=90.0, starting_price=50.0)
        auction.place_bid("a", 50.0)
        result = auction.close()
        assert result.winner is None
        assert not result.reserve_met

    def test_no_bids_at_all(self):
        auction = Auction("auction-m-1", ITEM, reserve_price=50.0)
        result = auction.close()
        assert result.winner is None
        assert result.winning_bid == 0.0
        assert result.bids == 0

    def test_closed_auction_rejects_bids_and_double_close(self):
        auction = Auction("auction-m-1", ITEM, reserve_price=50.0, starting_price=40.0)
        auction.close()
        with pytest.raises(AuctionError):
            auction.place_bid("a", 60.0)
        with pytest.raises(AuctionError):
            auction.close()

    def test_negative_reserve_rejected(self):
        with pytest.raises(AuctionError):
            Auction("auction-m-1", ITEM, reserve_price=-1.0)


class TestAuctionHouse:
    def test_generous_consumer_wins(self):
        house = AuctionHouse("marketplace-1", seed=3, competitor_count=3)
        result = house.run_auction(ITEM, bidder="alice", max_price=200.0)
        assert result.winner == "alice"
        assert result.winning_bid <= 200.0
        assert result.reserve_met
        assert house.completed == [result]

    def test_lowball_consumer_loses(self):
        house = AuctionHouse("marketplace-1", seed=3, competitor_count=3)
        result = house.run_auction(ITEM, bidder="alice", max_price=55.0)
        assert result.winner != "alice"

    def test_no_competitors_means_cheap_win(self):
        house = AuctionHouse("marketplace-1", seed=3, competitor_count=0)
        result = house.run_auction(ITEM, bidder="alice", max_price=200.0, reserve_price=40.0)
        assert result.winner == "alice"
        assert result.winning_bid == pytest.approx(50.0)  # the starting price

    def test_invalid_parameters(self):
        house = AuctionHouse("marketplace-1")
        with pytest.raises(AuctionError):
            house.run_auction(ITEM, bidder="alice", max_price=0.0)
        with pytest.raises(AuctionError):
            AuctionHouse("m", competitor_count=-1)

    def test_deterministic_given_seed(self):
        first = AuctionHouse("m", seed=9).run_auction(ITEM, "alice", max_price=120.0)
        second = AuctionHouse("m", seed=9).run_auction(ITEM, "alice", max_price=120.0)
        assert first.winning_bid == second.winning_bid
        assert first.winner == second.winner

    def test_house_names_its_auctions_from_its_own_sequence(self):
        first, second = AuctionHouse("marketplace-1"), AuctionHouse("marketplace-2")
        ids = [
            house.run_auction(ITEM, "alice", max_price=120.0).auction_id
            for house in (first, second, first)
        ]
        assert ids == ["auction-marketplace-1-1", "auction-marketplace-2-1",
                       "auction-marketplace-1-2"]

    def test_winning_bid_never_exceeds_consumer_maximum(self):
        for seed in range(6):
            house = AuctionHouse("m", seed=seed)
            result = house.run_auction(ITEM, bidder="alice", max_price=130.0)
            if result.winner == "alice":
                assert result.winning_bid <= 130.0


class TestNegotiationService:
    def test_agreement_within_zone_of_possible_agreement(self):
        service = NegotiationService("marketplace-1")
        outcome = service.negotiate(ITEM, buyer_max=90.0, seller_reserve=70.0)
        assert outcome.agreed
        assert 70.0 <= outcome.final_price <= 90.0
        assert outcome.rounds >= 1
        assert service.completed == [outcome]

    def test_no_agreement_when_no_overlap(self):
        service = NegotiationService("marketplace-1", max_rounds=6)
        outcome = service.negotiate(ITEM, buyer_max=50.0, seller_reserve=80.0)
        assert not outcome.agreed
        assert outcome.final_price == 0.0

    def test_generous_buyer_settles_quickly(self):
        service = NegotiationService("marketplace-1")
        outcome = service.negotiate(ITEM, buyer_max=150.0, seller_reserve=60.0)
        assert outcome.agreed
        assert outcome.rounds <= 2

    def test_transcript_alternates_parties(self):
        service = NegotiationService("marketplace-1")
        outcome = service.negotiate(ITEM, buyer_max=95.0, seller_reserve=75.0)
        parties = [offer.party for offer in outcome.transcript]
        assert parties[0] == "buyer"
        assert "seller" in parties

    def test_service_names_its_sessions_from_its_own_sequence(self):
        first, second = NegotiationService("marketplace-1"), NegotiationService("marketplace-2")
        ids = [
            service.negotiate(ITEM, buyer_max=90.0, seller_reserve=70.0).negotiation_id
            for service in (first, second, first)
        ]
        assert ids == ["negotiation-marketplace-1-1", "negotiation-marketplace-2-1",
                       "negotiation-marketplace-1-2"]

    def test_parameter_validation(self):
        service = NegotiationService("marketplace-1")
        with pytest.raises(NegotiationError):
            service.negotiate(ITEM, buyer_max=0.0, seller_reserve=10.0)
        with pytest.raises(NegotiationError):
            service.negotiate(ITEM, buyer_max=50.0, seller_reserve=-1.0)
        with pytest.raises(NegotiationError):
            service.negotiate(ITEM, buyer_max=50.0, seller_reserve=10.0, buyer_concession=0.0)
        with pytest.raises(NegotiationError):
            NegotiationService("m", max_rounds=0)

    def test_final_price_respects_both_limits(self):
        service = NegotiationService("marketplace-1")
        for buyer_max, reserve in [(85.0, 70.0), (120.0, 90.0), (75.0, 72.0)]:
            outcome = service.negotiate(ITEM, buyer_max=buyer_max, seller_reserve=reserve)
            if outcome.agreed:
                assert reserve <= outcome.final_price <= max(buyer_max, ITEM.price)
